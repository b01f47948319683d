"""Scenario files: named domain/data builders, the operation handlers, the
schema that types every field they read, reading and validation, and the
runner that dispatches one operation and writes its reports.  The bundled
corpus (``pmelab.bundled``) is read through :func:`load_scenario` like any
user file.

A scenario is a JSON object with a name, a seed, one operation, and the
geometry/data it needs.  Domains come either as named primitives (ball,
box, punctured_ball, box_minus_segment) on an explicit grid or as inline
0/1 masks; data profiles are named closed forms.  Reruns with the same
scenario and seed write byte-identical CSV files.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import replace
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import barriers, capacity, degiorgi, perron
from .geometry import (
    Cylinder,
    Grid,
    SpaceTimeDomain,
    SpatialDomain,
    diameter,
)
from .solver import (
    BoundaryData,
    Field,
    SolverConfig,
    cfl_max_dt,
    comparison_check,
    scheme_residual,
    solve_union,
    solve_union_many,
)


class ScenarioError(ValueError):
    """Scenario file fails validation or names an unknown entity."""


_NUMBER = {"type": "number"}
_INTEGER = {"type": "integer"}
_NUMBERS = {"type": "array", "items": _NUMBER}
_OPTIONAL_NUMBER = {"type": ["number", "null"]}

# The fields each profile of ``build_data`` reads without a default;
# ``constant`` is the profile when none is named.
_PROFILE_REQUIRED = {
    "constant": ["value"], "linear": ["a", "b"], "power_linear": ["a", "b"],
    "barenblatt": ["C", "n"], "tent": ["center", "width"],
    "ramped_tent": ["center", "width"],
}

# The profiles ``build_data`` builds and the fields they read, typed.
_DATA_PROFILE = {
    "type": "object",
    "allOf": [{"if": {"required": [] if kind == "constant" else ["profile"],
                      "properties": {"profile": {"const": kind}}},
               "then": {"required": fields}}
              for kind, fields in _PROFILE_REQUIRED.items()],
    "properties": {
        "profile": {"enum": list(_PROFILE_REQUIRED)},
        **dict.fromkeys(("value", "a", "b", "clip", "C", "sup", "t0", "width",
                         "floor", "peak", "ramp"), _NUMBER),
        "axis": _INTEGER, "n": _INTEGER,
        "center": _NUMBERS,
        "label": {"type": "string"},
    },
}

# The fields each shape of ``build_spatial`` reads; ``box`` is the shape
# when none is named, and only the box bounds ``lo``/``hi`` have defaults.
_SHAPE_FIELDS = {
    "box": {"lo": _NUMBERS, "hi": _NUMBERS},
    "box_minus_segment": {"lo": _NUMBERS, "hi": _NUMBERS,
                          "seg_from": _NUMBERS, "seg_to": _NUMBERS},
    "ball": {"center": _NUMBERS, "radius": _NUMBER},
    "punctured_ball": {"center": _NUMBERS, "radius": _NUMBER},
    "inline": {"mask": _NUMBERS},
}

# A spatial base: each shape is closed over the fields it reads.
_BASE = {
    "type": "object",
    "properties": {"shape": {"enum": list(_SHAPE_FIELDS)}},
    "allOf": [{"if": {"required": [] if shape == "box" else ["shape"],
                      "properties": {"shape": {"const": shape}}},
               "then": {"required": sorted(fields.keys() - {"lo", "hi"}),
                        "additionalProperties": False,
                        "properties": {"shape": True, **fields}}}
              for shape, fields in _SHAPE_FIELDS.items()],
}

# The fields of ``barriers.BarrierSpec``, with ``torsion`` (the base and
# pole of a torsion profile) in place of the computed ``torsion_field``.
_BARRIER = {
    "type": "object",
    "required": ["kind", "c", "j", "m", "n"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": list(barriers.KINDS)},
        "c": _NUMBER, "m": _NUMBER, "j": _INTEGER, "n": _INTEGER,
        # null: the diameter of the region
        "diam": _OPTIONAL_NUMBER,
        "alpha": _OPTIONAL_NUMBER, "gamma": _OPTIONAL_NUMBER,
        "anchor": {"type": "array", "items": [_NUMBERS, _NUMBER],
                   "minItems": 2, "maxItems": 2},
        "t_halfwidth": _NUMBER,
        "torsion": {"type": "object", "required": ["base", "x0"],
                    "additionalProperties": False,
                    "properties": {"base": _BASE, "x0": _NUMBERS}},
    },
}


# ---------------------------------------------------------------------------
# builders

def build_grid(spec: dict) -> Grid:
    return Grid(n=spec["n"], h=spec["h"], origin=tuple(spec["origin"]),
                extents=tuple(spec["extents"]))


def _point(value, grid: Grid, where: str):
    """``value``, a point-valued field at ``where``, once it has one
    coordinate per axis of ``grid``."""
    if len(value) != grid.n:
        raise ScenarioError(f"{where} has {len(value)} coordinates; "
                            f"the grid has {grid.n} axes")
    return value


def build_spatial(spec: dict, grid: Grid, where: str = "base"
                  ) -> SpatialDomain:
    """The domain a base spec names on ``grid``; ``where`` locates the spec
    in the scenario for error messages."""
    kind = spec.get("shape", "box")
    centers = grid.centers()

    def point(key, default=None):
        value = spec[key] if default is None else spec.get(key, default)
        return np.asarray(_point(value, grid, f"{where}/{key}"), dtype=float)

    if kind == "inline":
        mask = np.asarray(spec["mask"], dtype=bool)
        cells = math.prod(grid.extents)
        if mask.size != cells:
            raise ScenarioError(f"{where}: the inline mask has {mask.size} "
                                f"cells, the grid {cells}")
        return SpatialDomain(grid, mask.reshape(grid.extents))
    if kind in ("ball", "punctured_ball"):
        center = point("center")
        radius = float(spec["radius"])
        mask = np.linalg.norm(centers - center, axis=-1) < radius
        if kind == "punctured_ball":
            mask[grid.cell_of(center)] = False
        return SpatialDomain(grid, mask)
    if kind not in ("box", "box_minus_segment"):
        raise ScenarioError(f"unknown domain shape {kind!r}")
    lo = point("lo", grid.origin)
    hi = point("hi", np.asarray(grid.origin)
               + np.asarray(grid.extents) * grid.h)
    mask = np.all((centers > lo) & (centers < hi), axis=-1)
    if kind == "box":
        return SpatialDomain(grid, mask)
    a, b = point("seg_from"), point("seg_to")
    ab = b - a
    denom = float(ab @ ab)
    flat = centers.reshape(-1, grid.n)
    s = np.clip((flat - a) @ ab / denom, 0.0, 1.0) if denom > 0 else 0.0
    dist = np.linalg.norm(flat - (a + np.outer(s, ab)), axis=-1)
    near = (dist < 0.51 * grid.h).reshape(grid.extents)
    return SpatialDomain(grid, mask & ~near)


def build_domain(doc: dict) -> SpaceTimeDomain:
    grid = build_grid(doc["grid"])
    dom = doc["domain"]
    dt = float(dom["dt"])
    cyls = []
    for i, c in enumerate(dom["cylinders"]):
        base = build_spatial(c["base"], grid, f"domain/cylinders/{i}/base")
        cyls.append(Cylinder(base, float(c["t1"]), float(c["t2"])))
    return SpaceTimeDomain(cyls, dt)


def build_data(spec: dict, m: float, grid: Grid, where: str = "data"
               ) -> BoundaryData:
    """Boundary data of a named profile; ``grid`` bounds the affine
    profiles, whose declared sup is their maximum over the grid's box, and
    ``where`` locates the spec in the scenario for error messages."""
    kind = spec.get("profile", "constant")
    if kind == "constant":
        return BoundaryData.constant(float(spec["value"]))
    if kind in ("linear", "power_linear"):
        a, b = float(spec["a"]), float(spec["b"])
        axis = int(spec.get("axis", 0))
        x_lo = grid.origin[axis]
        x_hi = x_lo + grid.extents[axis] * grid.h
        top = max(a + b * x_lo, a + b * x_hi)
        if kind == "linear":
            lo = float(spec.get("clip", 0.0))
            return BoundaryData(
                fn=lambda x, t: np.maximum(a + b * x[..., axis], lo),
                bounds=(max(lo, 0.0), max(top, lo)))
        # (a + b*x_axis)^(1/m): u^m affine, hence a stationary solution
        return BoundaryData(
            fn=lambda x, t: np.maximum(a + b * x[..., axis], 0.0) ** (1.0 / m),
            bounds=(0.0, max(top, 0.0) ** (1.0 / m)))
    if kind == "barenblatt":
        C = float(spec["C"])
        n = int(spec["n"])
        return BoundaryData(
            fn=lambda x, t: barriers.barenblatt(x, t, m, n, C),
            bounds=(0.0, float(spec.get("sup", 1.0))))
    if kind == "tent":
        center = np.asarray(_point(spec["center"], grid, f"{where}/center"),
                            dtype=float)
        t0 = float(spec.get("t0", 0.0))
        width = float(spec["width"])
        floor = float(spec.get("floor", 0.0))
        peak = float(spec.get("peak", 1.0))

        def tent(x, t):
            r = np.sqrt(((x - center) ** 2).sum(-1) + (t - t0) ** 2)
            return np.maximum(peak * (1.0 - r / width), floor)

        return BoundaryData(fn=tent, bounds=(max(floor, 0.0), peak))
    if kind == "ramped_tent":
        center = np.asarray(_point(spec["center"], grid, f"{where}/center"),
                            dtype=float)
        width = float(spec["width"])
        ramp = float(spec.get("ramp", 0.05))
        floor = float(spec.get("floor", 0.0))

        def rt(x, t):
            r = np.linalg.norm(x - center, axis=-1)
            return np.maximum(np.maximum(1.0 - r / width, 0.0)
                              * min(t / ramp, 1.0), floor)

        return BoundaryData(fn=rt, bounds=(max(floor, 0.0), 1.0))
    raise ScenarioError(f"unknown data profile {kind!r}")


def build_config(spec: dict | None) -> SolverConfig:
    """The scenario's ``solver`` block, whose keys the schema limits to
    ``SolverConfig``'s fields; JSON may write the integer ``newton_max``
    as 2.0."""
    spec = dict(spec or {})
    spec["newton_max"] = int(spec.get("newton_max", SolverConfig.newton_max))
    return SolverConfig(**spec)


# ---------------------------------------------------------------------------
# report plumbing

class RunReport:
    def __init__(self, scenario: dict, out_dir: Path):
        self.scenario = scenario
        self.out_dir = out_dir
        self.checks: list[dict] = []
        self.artifacts: list[str] = []
        self.payload: dict = {}
        self.started = time.perf_counter()

    def check(self, name: str, passed: bool, detail=None):
        self.checks.append({"check": name, "pass": bool(passed),
                            "detail": detail})

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        path = self.out_dir / name
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(v) for v in row])
        self.artifacts.append(str(path))
        return path

    def finalize(self) -> dict:
        doc = {
            "scenario": {k: v for k, v in self.scenario.items()
                         if k != "operation"} | {
                             "operation": self.scenario["operation"]["kind"]},
            "wall_time_s": round(time.perf_counter() - self.started, 3),
            "checks": self.checks,
            "all_pass": self.all_pass,
            "artifacts": self.artifacts,
        } | self.payload
        path = self.out_dir / "report.json"
        path.write_text(json.dumps(doc, indent=2, default=_json_default)
                        + "\n")
        return doc


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return v


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.bool_,)):
        return bool(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def _field_rows(field):
    lev, *idx = np.nonzero(field.defined)
    return zip(field.domain.level_times()[lev], *idx,
               field.values[field.defined])


# Newton stops once every step residual is within newton_tol * scale; the
# reports recompute the residual in another association order, whose
# rounding (about 1e-9 of that bound at the default tolerances) this
# relative margin covers.
_ROUNDING_MARGIN = 1 + 1e-6


def _worst_residual(field) -> float:
    """Largest |scheme residual| over every interior sample (0 if none)."""
    res = scheme_residual(field)[field.scheme_mask]
    return float(np.abs(res).max(initial=0.0))


def _expect(report, want, what, got, detail):
    """The check "<what> <want>" that ``got`` is ``want``, if the operation
    declares a ``want``."""
    if want:
        report.check(f"{what} {want!r}", got == want, detail)


def _thickness(U, x0, k_max):
    """U's dyadic Wiener profile at x0 and its thick/thin verdict."""
    prof = capacity.wiener_profile(U, tuple(x0), k_max=int(k_max))
    return prof, capacity.classify_thickness(prof)


# ---------------------------------------------------------------------------
# operation handlers

def _solve_inputs(doc):
    """(operation, m, domain, solver config) of an operation that solves."""
    op = doc["operation"]
    return (op, float(op["m"]), build_domain(doc),
            build_config(doc.get("solver")))


def _probe_inputs(doc):
    """(operation, m, domain, config, xi0, radii, family, labels) of a
    probe-type operation; the family is the operation's, else perron's
    default one."""
    op, m, d, cfg = _solve_inputs(doc)
    xi0 = (tuple(_point(op["x0"], d.grid, "operation/x0")), float(op["t0"]))
    if "family" in op:
        family = [build_data(s, m, d.grid, f"operation/family/{i}")
                  for i, s in enumerate(op["family"])]
        labels = [s.get("label", s.get("profile", f"member-{i}"))
                  for i, s in enumerate(op["family"])]
    else:
        family, labels = perron.default_data_family(d, xi0)
    return op, m, d, cfg, xi0, [float(r) for r in op["radii"]], family, labels


def _op_solve(doc, report, rng):
    op, m, d, cfg = _solve_inputs(doc)
    data = build_data(doc["data"], m, d.grid)
    field = solve_union(d, data, cfg, m)
    header = ["t"] + [f"i{a}" for a in range(d.grid.n)] + ["value"]
    report.write_csv("field.csv", header, _field_rows(field))
    worst = _worst_residual(field)
    scale = field.stats["residual_scale"]
    report.check("interior residual within newton_tol x scale",
                 worst <= cfg.newton_tol * scale * _ROUNDING_MARGIN,
                 {"worst": worst, "scale": scale})
    stats = field.stats
    report.payload["solve"] = {
        "residual_scale": scale,
        "newton_iterations_max": max(stats["newton_iterations"], default=0),
        "linear_iterations": sum(stats["linear_iterations"]),
        "line_search_backtracks": stats["line_search_backtracks"],
        "line_search_failures": stats["line_search_failures"],
        "cfl_max_dt": cfl_max_dt(data.bounds[1], d.grid.h, m, d.grid.n),
        "sup": field.sup(), "min": field.min(),
    }


def _op_verify_barrier(doc, report, rng):
    op = doc["operation"]
    expect = op.get("expect", "certified")
    if expect not in ("certified", "violations"):
        raise ScenarioError(f"operation/expect {expect!r} is neither "
                            "'certified' nor 'violations'")
    spec_args = dict(op["barrier"])
    region = build_domain(doc)
    if spec_args.get("diam") is None:
        spec_args["diam"] = diameter(region)
    if "anchor" in spec_args:
        _point(spec_args["anchor"][0], region.grid,
               "operation/barrier/anchor/0")
    if "torsion" in spec_args:
        t_spec = spec_args.pop("torsion")
        U = build_spatial(t_spec["base"], region.grid,
                          "operation/barrier/torsion/base")
        x0 = _point(t_spec["x0"], U.grid, "operation/barrier/torsion/x0")
        spec_args["torsion_field"] = capacity.torsion_profile(U, tuple(x0))
    spec = barriers.BarrierSpec(**spec_args)
    policy = barriers.SamplingPolicy(seed=doc.get("seed", 0),
                                     jitter_factor=op.get("jitter_factor", 10),
                                     max_samples=op.get("max_samples"))
    rep = barriers.verify_sign(spec, region, policy)
    report.payload["sign_report"] = rep.to_dict()
    report.write_csv("violations.csv", ["x", "t", "residual"],
                     ((";".join(map(_fmt, x)), t, r) for x, t, r in zip(
                         rep.x.tolist(), rep.t.tolist(),
                         rep.residual.tolist())))
    certify = expect == "certified"
    report.check("claimed residual sign certified" if certify
                 else "violations found (as expected)",
                 rep.certified == certify, {"violations": rep.violations})


def _op_perron(doc, report, rng):
    op, m, d, cfg = _solve_inputs(doc)
    data = build_data(doc["data"], m, d.grid)
    ladder = op.get("eps_ladder", [frac * data.bounds[1]
                                   for frac in perron.DEFAULT_EPS_LADDER])
    bracket = perron.perron_bracket(d, data, ladder, cfg, m)
    (disc,) = perron.discretization_estimate([bracket.field], [data], cfg, m)
    gaps = bracket.gaps
    report.write_csv("gaps.csv", ["epsilon", "gap"],
                     zip(bracket.epsilons, gaps))
    report.payload["perron"] = bracket.to_dict() | {"disc_est": disc}
    for eps, gap in zip(bracket.epsilons, gaps):
        report.check(f"gap within 2*eps + 3*disc at eps={eps:g}",
                     gap <= 2 * eps + 3 * disc,
                     {"gap": gap, "eps": eps, "disc": disc})
    report.check("gap nonincreasing along the eps ladder",
                 all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])),
                 {"gaps": gaps})


def _removability_from_op(op, d, report):
    """The operation's removability certificate, if it asks for one; its
    thickness verdict goes into the report payload."""
    rem = op.get("removability")
    if not rem:
        return None
    env_base = build_spatial(rem["base"], d.grid,
                             "operation/removability/base")
    env = SpaceTimeDomain(
        [Cylinder(env_base, c.t1, c.t2) for c in d.cylinders], d.dt)
    x0 = _point(rem["x0"], d.grid, "operation/removability/x0")
    prof, verdict = _thickness(SpatialDomain(d.grid, d.step_masks()[0]), x0,
                               rem.get("k_max", 5))
    report.payload["thickness"] = verdict.to_dict()
    return perron.RemovabilityCertificate(env, prof, verdict)


def _op_probe(doc, report, rng):
    op, m, d, cfg, xi0, radii, family, labels = _probe_inputs(doc)
    cert = _removability_from_op(op, d, report)
    probe = perron.regularity_probe(d, xi0, family, radii, cfg, m,
                                    family_labels=labels, removability=cert)
    report.payload["probe"] = probe.to_dict()
    report.write_csv("probe_gaps.csv",
                     ["member", "radius", "upper_gap", "lower_gap"],
                     ((lab, r, ug, lg) for lab, ugs, lgs in zip(
                         probe.family_labels, probe.upper_gaps,
                         probe.lower_gaps)
                      for r, ug, lg in zip(probe.approach_radii, ugs, lgs)))
    _expect(report, op.get("expect"), "verdict is", probe.verdict,
            {"verdict": probe.verdict})
    if op.get("require_intercepts_within_disc", False):
        ok = all(u <= 2 * dd and lo <= 2 * dd for u, lo, dd in
                 zip(probe.upper_intercepts, probe.lower_intercepts,
                     probe.disc_ests))
        report.check("all intercepts within 2x disc estimate", ok,
                     {"upper": probe.upper_intercepts,
                      "lower": probe.lower_intercepts,
                      "disc": probe.disc_ests})


def _op_dichotomy(doc, report, rng):
    op, m, d, cfg, xi0, radii = _probe_inputs(doc)[:6]
    data = build_data(doc["data"], m, d.grid)
    cert = _removability_from_op(op, d, report)
    if cert is not None:
        _expect(report, op.get("expect_thickness"), "complement classified",
                cert.verdict.classification, cert.verdict.to_dict())
    res = perron.dichotomy_check(d, xi0, data, radii, cfg, m,
                                 removability=cert)
    report.payload["dichotomy"] = res.to_dict()
    report.write_csv("dichotomy.csv", ["radius", "ball_min"], res.per_radius)
    _expect(report, op.get("expect"), "branch is", res.branch,
            {"branch": res.branch, "liminf_estimate": res.liminf_estimate})


def _op_future_probe(doc, report, rng):
    op, m, d, cfg, xi0, radii, family, labels = _probe_inputs(doc)
    full, trunc, agree = perron.future_truncation_probe(
        d, xi0, family, radii, cfg, m, family_labels=labels)
    report.payload["future_probe"] = {
        "full": full.to_dict(), "truncated": trunc.to_dict(), "agree": agree}
    report.check("full and truncated verdicts agree", agree,
                 {"full": full.verdict, "truncated": trunc.verdict})


def rescale_grid(gspec: dict, h: float) -> float:
    """Set the grid spec ``gspec`` to cell size h over about the same span
    (each extent scaled and rounded); returns the old h over h."""
    factor = gspec["h"] / h
    gspec["h"] = h
    gspec["extents"] = [int(round(e * factor)) for e in gspec["extents"]]
    return factor


def _capacity_at(doc, op, h):
    gspec = dict(doc["grid"])
    rescale_grid(gspec, h)
    grid = build_grid(gspec)
    ambient = build_spatial(op["ambient"], grid, "operation/ambient")
    E = build_spatial(op["set"], grid, "operation/set")
    return capacity.capacity(capacity.CompactMask(grid, E.mask, ambient))


def _op_capacity(doc, report, rng):
    op, gspec = doc["operation"], doc["grid"]
    val = _capacity_at(doc, op, gspec["h"])
    report.payload["capacity"] = {"value": val, "h": gspec["h"],
                                  "n": gspec["n"]}
    report.check("capacity is nonnegative", val >= 0, {"value": val})
    ladder = op.get("refinement_ladder")
    if ladder:
        values = [_capacity_at(doc, op, float(h)) for h in ladder]
        diffs = [abs(b - a) for a, b in zip(values, values[1:])]
        report.payload["capacity"]["refinement"] = {
            "h": list(ladder), "values": values, "cauchy_diffs": diffs}
        report.check("refinement differences shrink",
                     all(b <= a for a, b in zip(diffs, diffs[1:])),
                     {"diffs": diffs})


def _op_wiener(doc, report, rng):
    op = doc["operation"]
    U = build_spatial(op["base"], build_grid(doc["grid"]), "operation/base")
    x0 = _point(op["x0"], U.grid, "operation/x0")
    prof, verdict = _thickness(U, x0, op.get("k_max", 5))
    rows = list(prof.to_rows())
    header = ["k", "r", "cap", "integrand", "partial_sum"]
    report.write_csv("wiener.csv", header, map(itemgetter(*header), rows))
    report.payload["wiener"] = {
        "profile": rows,
        "ambient_halfwidth": prof.ambient_halfwidth,
        "ambient_sensitivity": prof.ambient_sensitivity,
        "classification": verdict.to_dict(),
    }
    _expect(report, op.get("expect"), "classified", verdict.classification,
            verdict.to_dict())


def _op_torsion(doc, report, rng):
    op = doc["operation"]
    grid = build_grid(doc["grid"])
    U = build_spatial(op["base"], grid, "operation/base")
    x0 = _point(op["x0"], grid, "operation/x0")
    field = capacity.torsion_profile(U, tuple(x0))
    cells = np.nonzero(U.mask)
    values = field.values[cells]
    report.write_csv("torsion.csv",
                     [f"i{a}" for a in range(grid.n)] + ["value"],
                     zip(*cells, values))
    phi = np.linalg.norm(grid.centers() - x0, axis=-1)
    report.check("profile dominates |x - x0|",
                 bool(np.all(values >= phi[cells] - 1e-9)))
    report.payload["torsion"] = {"min": float(np.nanmin(values)),
                                 "max": float(np.nanmax(values))}


def _op_degiorgi(doc, report, rng):
    op, m, d, cfg = _solve_inputs(doc)
    x0 = tuple(_point(op["x0"], d.grid, "operation/x0"))
    field = solve_union(d, build_data(doc["data"], m, d.grid), cfg, m)
    t0, rho, sigma = float(op["t0"]), float(op["rho"]), float(op["sigma"])
    M = float(op.get("M", 0.0))
    k = float(op.get("k", 0.5 * field.sup()))
    rep = degiorgi.iterate(field, x0, t0, rho, sigma, M, k,
                           j_max=int(op.get("j_max", 20)))
    header = ["j", "k_j", "Y_j", "A_j_measure", "ratio", "bound"]
    report.write_csv("iteration.csv", header,
                     map(itemgetter(*header), rep.to_rows()))
    report.payload["degiorgi"] = rep.to_dict()
    report.check("level inequality holds at every j",
                 rep.all_level_checks_pass)
    energies = rep.energies
    report.check("energies nonincreasing",
                 all(b <= a * (1 + 1e-12)
                     for a, b in zip(energies, energies[1:])))
    sup = degiorgi.sup_estimate_check(field, x0, t0, rho, sigma, M)
    report.payload["sup_estimate"] = sup.to_dict()
    report.check("sup estimate fitted a finite C",
                 sup.fitted_C is not None and math.isfinite(sup.fitted_C))


def _op_barenblatt(doc, report, rng):
    op = doc["operation"]
    m, n, C0 = float(op["m"]), int(op["n"]), float(op["C"])
    levels = op.get("levels", [0, 1])
    box = float(op.get("box_halfwidth", 0.5))
    t1, t2 = float(op.get("t1", 1.0)), float(op.get("t2", 1.5))
    base_cells = int(op.get("base_cells", 32))
    base_steps = int(op.get("base_steps", 50))
    cfg = build_config(doc.get("solver"))
    results = []
    for lev in levels:
        cells = base_cells * 2 ** lev
        steps = base_steps * 2 ** lev
        h = 2 * box / cells
        g = Grid(n=n, h=h, origin=(-box,) * n, extents=(cells,) * n)
        U = SpatialDomain(g, np.ones((cells,) * n, dtype=bool))
        d = SpaceTimeDomain([Cylinder(U, t1, t2)], dt=(t2 - t1) / steps)
        peak = float(barriers.barenblatt(np.zeros(n), t1, m, n, C0))
        data = BoundaryData(
            fn=lambda x, t: barriers.barenblatt(x, t, m, n, C0),
            bounds=(0.0, peak))
        t_start = time.perf_counter()
        u = solve_union(d, data, cfg, m)
        wall = time.perf_counter() - t_start
        exact = barriers.barenblatt(g.centers(), t2, m, n, C0)
        err = np.abs(u.values[-1] - exact)[U.mask]
        l1 = float(err.sum()) * h ** n
        results.append({"level": lev, "h": h, "steps": steps, "l1": l1,
                        "linf": float(err.max()), "wall_s": wall})
    # wall_s stays out of the CSV so that reruns write identical files
    report.write_csv("convergence.csv",
                     ["level", "h", "steps", "l1_error", "linf_error"],
                     map(itemgetter("level", "h", "steps", "l1", "linf"),
                         results))
    report.payload["barenblatt"] = {"results": results}
    pairs = list(zip(results, results[1:]))
    for a, b in pairs:
        report.check(
            f"L1 error decreases from level {a['level']} to {b['level']}",
            b["l1"] < a["l1"], {"from": a["l1"], "to": b["l1"]})
    if pairs:
        orders = [math.log2(a["l1"] / b["l1"]) for a, b in pairs]
        report.payload["barenblatt"]["orders"] = orders
        report.check("empirical order at least 0.8",
                     all(o >= 0.8 for o in orders), {"orders": orders})
    budget = op.get("runtime_budget_s")
    if budget:
        report.check(f"each level within {budget} s",
                     all(r["wall_s"] < budget for r in results),
                     {"walls": [r["wall_s"] for r in results]})


def _campaign_pair(params):
    """The pair's data f and g, with g = f + gap before clipping at 0."""
    coefs, base, gap = params

    def mk(shift):
        def fn(x, t):
            v = base + shift
            for ax, at, amp in coefs:
                v = v + amp * np.sin(ax * x[..., 0] + at * x[..., -1]
                                     + (ax - at) * t)
            return np.maximum(v, 0.0)
        return fn

    return (BoundaryData(fn=mk(0.0), bounds=(0.0, base + 1.0)),
            BoundaryData(fn=mk(gap), bounds=(0.0, base + gap + 1.0)))


def _op_comparison_campaign(doc, report, rng):
    op, m, d, cfg = _solve_inputs(doc)
    trials = int(op.get("trials", 100))
    params = []
    for _ in range(trials):
        coefs = [(rng.uniform(-4, 4), rng.uniform(-4, 4),
                  rng.uniform(0, 0.3)) for _ in range(3)]
        params.append((coefs, rng.uniform(0.5, 1.5), rng.uniform(0.0, 0.7)))
    fields = solve_union_many(
        d, [data for p in params for data in _campaign_pair(p)], cfg, m)
    outcomes = [comparison_check(hi, lo)
                for lo, hi in zip(fields[::2], fields[1::2])]
    ordered = sum(1 for ok, _ in outcomes if ok)
    violations = [{"trial": i, "count": len(viol)}
                  for i, (ok, viol) in enumerate(outcomes) if not ok]
    report.payload["campaign"] = {"trials": trials, "ordered": ordered,
                                  "violations": violations}
    report.check(f"{trials}/{trials} ordered with zero interior violations",
                 ordered == trials, {"ordered": ordered})


def _op_scaling_check(doc, report, rng):
    op, m, d, cfg = _solve_inputs(doc)
    data = build_data(doc["data"], m, d.grid)
    worst_overall = 0.0
    for a in op.get("multipliers", [0.25, 4.0]):
        cfg_a = replace(cfg, diffusion=a)
        u_a = solve_union(d, data, cfg_a, m)
        v = perron.scale_transform(u_a, a, m)
        v_unit = Field(v.domain, v.values, m,
                       replace(u_a.config, diffusion=1.0), v.stats)
        worst = _worst_residual(v_unit)
        factor = a ** (1.0 / (m - 1))
        scale = u_a.stats["residual_scale"] * factor
        tol = cfg_a.newton_tol * scale * _ROUNDING_MARGIN
        report.check(f"transformed field solves the unit scheme (a={a})",
                     worst <= tol, {"worst": worst, "tol": tol})
        worst_overall = max(worst_overall, worst)
        # The check above passes on any field whose residual stays under
        # Newton's tolerance.  The transform is exact, so the transformed
        # residual is factor times the multiplied solve's own, to rounding.
        mask = u_a.scheme_mask
        gap = float(np.abs(scheme_residual(v_unit)[mask]
                           - factor * scheme_residual(u_a)[mask]
                           ).max(initial=0.0))
        unit = float(np.finfo(float).eps) * scale
        report.check(f"transformed residual is a^(1/(m-1)) times the "
                     f"multiplied one (a={a})", gap <= unit,
                     {"gap": gap, "tol": unit})
    report.payload["scaling"] = {"worst_residual": worst_overall}


_HANDLERS = {
    "solve": _op_solve,
    "verify-barrier": _op_verify_barrier,
    "perron": _op_perron,
    "probe": _op_probe,
    "dichotomy": _op_dichotomy,
    "future-probe": _op_future_probe,
    "capacity": _op_capacity,
    "wiener": _op_wiener,
    "torsion": _op_torsion,
    "degiorgi": _op_degiorgi,
    "barenblatt": _op_barenblatt,
    "comparison-campaign": _op_comparison_campaign,
    "scaling-check": _op_scaling_check,
}


# ---------------------------------------------------------------------------
# schema, reading and validation

SCHEMA = {
    "type": "object",
    "required": ["name", "operation"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "description": {"type": "string"},
        "seed": {"type": "integer"},
        # Read by nothing; accepted only because the benchmark's campaign
        # workload (bench/workloads.py) sets it on the documents it
        # validates.
        "threads": {"type": "integer"},
        # Closed and typed: its keys are those the handlers read, so a
        # misspelled or malformed one is an input error, not a default or
        # a crash.
        "operation": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": list(_HANDLERS)},
                "trials": {"type": "integer", "minimum": 1},
                "jitter_factor": {"type": "integer", "minimum": 0},
                **dict.fromkeys(("m", "C", "M", "t0", "t1", "t2", "rho",
                                 "sigma", "k", "box_halfwidth",
                                 "runtime_budget_s"), _NUMBER),
                **dict.fromkeys(("n", "k_max", "j_max", "base_cells",
                                 "base_steps", "max_samples"), _INTEGER),
                **dict.fromkeys(("radii", "x0", "eps_ladder", "multipliers",
                                 "refinement_ladder"), _NUMBERS),
                **dict.fromkeys(("base", "ambient", "set"), _BASE),
                **dict.fromkeys(("expect", "expect_thickness"),
                                {"type": "string"}),
                "require_intercepts_within_disc": {"type": "boolean"},
                "levels": {"type": "array", "items": _INTEGER},
                "removability": {
                    "type": "object",
                    "required": ["base", "x0"],
                    "additionalProperties": False,
                    "properties": {"base": _BASE, "x0": _NUMBERS,
                                   "k_max": _INTEGER},
                },
                "family": {"type": "array", "items": _DATA_PROFILE},
                "barrier": _BARRIER,
            },
        },
        "grid": {
            "type": "object",
            "required": ["n", "h", "origin", "extents"],
            "additionalProperties": False,
            # one origin coordinate and one extent per axis
            "allOf": [{"if": {"properties": {"n": {"const": n}}},
                       "then": {"properties": dict.fromkeys(
                           ("origin", "extents"),
                           {"minItems": n, "maxItems": n})}}
                      for n in (1, 2, 3)],
            "properties": {
                "n": {"type": "integer", "minimum": 1, "maximum": 3},
                "h": {"type": "number", "exclusiveMinimum": 0},
                "origin": {"type": "array", "items": {"type": "number"}},
                "extents": {"type": "array",
                            "items": {"type": "integer", "minimum": 1}},
            },
        },
        "domain": {
            "type": "object",
            "required": ["dt", "cylinders"],
            "additionalProperties": False,
            "properties": {
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "cylinders": {"type": "array", "items": {
                    "type": "object",
                    "required": ["base", "t1", "t2"],
                    "additionalProperties": False,
                    "properties": {"base": _BASE,
                                   "t1": _NUMBER, "t2": _NUMBER},
                }},
            },
        },
        "data": _DATA_PROFILE,
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "scheme": {"enum": ["implicit", "explicit"]},
                **dict.fromkeys(("newton_tol", "linear_tol", "diffusion"),
                                {"type": "number", "exclusiveMinimum": 0}),
                "newton_max": {"type": "integer", "minimum": 1},
            },
        },
    },
}


def _is_number(value) -> bool:
    # Draft 7, save that NaN and +-Infinity, which json.loads accepts, are
    # not numbers here: no field of a scenario means anything by them
    return (not isinstance(value, bool) and isinstance(value, int)
            or isinstance(value, float) and math.isfinite(value))


# Draft 7's types: a bool is neither an integer nor a number, and 2.0 is an
# integer.
_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int)
                                            or v.is_integer()),
}

_BOUNDS = {
    "minimum": (lambda v, b: v < b, "less than the minimum of"),
    "maximum": (lambda v, b: v > b, "greater than the maximum of"),
    "exclusiveMinimum": (lambda v, b: v <= b,
                         "less than or equal to the minimum of"),
}


def _equal(a, b) -> bool:
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _schema_errors(value, schema, path=()):
    """Yield ``(path, message)`` for each way ``value`` breaks ``schema``,
    in the order and with the messages of a Draft 7 validator, except that
    NaN and +-Infinity are not numbers.  Only the keywords ``SCHEMA`` uses
    are implemented."""
    if schema is True:
        return
    if schema is False:
        yield path, f"False schema does not allow {value!r}"
        return
    for key, rule in schema.items():
        if key == "type":
            types = [rule] if isinstance(rule, str) else rule
            if not any(_IS_TYPE[t](value) for t in types):
                # a float fails "number" only when it is not finite
                yield path, (
                    f"{value!r} is not a finite number"
                    if isinstance(value, float) and "number" in types else
                    f"{value!r} is not of type {', '.join(map(repr, types))}")
        elif key == "enum":
            if not any(_equal(value, e) for e in rule):
                yield path, f"{value!r} is not one of {rule!r}"
        elif key == "const":
            if not _equal(value, rule):
                yield path, f"{rule!r} was expected"
        elif key == "allOf":
            for sub in rule:
                yield from _schema_errors(value, sub, path)
        elif key == "if":
            if "then" in schema and next(_schema_errors(value, rule),
                                         None) is None:
                yield from _schema_errors(value, schema["then"], path)
        elif key in _BOUNDS:
            fails, words = _BOUNDS[key]
            if _is_number(value) and fails(value, rule):
                yield path, f"{value!r} is {words} {rule!r}"
        elif isinstance(value, dict):
            if key == "properties":
                for name, sub in rule.items():
                    if name in value:
                        yield from _schema_errors(value[name], sub,
                                                  path + (name,))
            elif key == "required":
                for name in rule:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
            elif key == "additionalProperties" and rule is False:
                extras = sorted(value.keys() - schema.get("properties", {}),
                                key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, ("Additional properties are not allowed "
                                 f"({', '.join(map(repr, extras))} {verb} "
                                 "unexpected)")
        elif isinstance(value, list):
            if key == "items":
                subs = rule if isinstance(rule, list) else [rule] * len(value)
                for i, (item, sub) in enumerate(zip(value, subs)):
                    yield from _schema_errors(item, sub, path + (i,))
            elif key == "minItems" and len(value) < rule:
                yield path, (f"{value!r} should be non-empty" if rule == 1
                             else f"{value!r} is too short")
            elif key == "maxItems" and len(value) > rule:
                yield path, f"{value!r} is too long"


def validate_scenario(doc: dict) -> None:
    """Raise :class:`ScenarioError` at the first error, in JSON path order,
    of ``doc`` against ``SCHEMA``."""
    error = min(_schema_errors(doc, SCHEMA), key=itemgetter(0), default=None)
    if error is not None:
        path, message = error
        loc = "/".join(map(str, path)) or "<root>"
        raise ScenarioError(f"scenario invalid at {loc}: {message}")


def load_scenario(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    validate_scenario(doc)
    return doc


def run_scenario(doc: dict, out_dir) -> dict:
    """Execute one scenario; returns the report dict (also written to disk)."""
    validate_scenario(doc)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = int(doc.get("seed", 0))
    rng = np.random.Generator(np.random.Philox(seed))
    report = RunReport(doc, out_dir)
    _HANDLERS[doc["operation"]["kind"]](doc, report, rng)
    return report.finalize()
