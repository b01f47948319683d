"""Scenario files: schema, named domain/data builders, the bundled corpus,
and the runner that dispatches one operation and writes its reports.

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
from pathlib import Path

import numpy as np
from jsonschema import Draft7Validator

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
    discrete_residual,
    solve_union,
)


class ScenarioError(ValueError):
    """Scenario file fails validation or names an unknown entity."""


OPERATIONS = ("solve", "verify-barrier", "perron", "probe", "dichotomy",
              "future-probe", "capacity", "wiener", "torsion", "degiorgi",
              "barenblatt", "comparison-campaign", "scaling-check")

SCHEMA = {
    "type": "object",
    "required": ["name", "operation"],
    "properties": {
        "name": {"type": "string"},
        "description": {"type": "string"},
        "seed": {"type": "integer"},
        "operation": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"enum": list(OPERATIONS)}},
        },
        "grid": {
            "type": "object",
            "required": ["n", "h", "origin", "extents"],
            "properties": {
                "n": {"type": "integer", "minimum": 1, "maximum": 3},
                "h": {"type": "number", "exclusiveMinimum": 0},
                "origin": {"type": "array", "items": {"type": "number"}},
                "extents": {"type": "array",
                            "items": {"type": "integer", "minimum": 1}},
            },
        },
        "domain": {"type": "object"},
        "data": {"type": "object"},
        "solver": {"type": "object"},
    },
}

_validator = Draft7Validator(SCHEMA)


def validate_scenario(doc: dict) -> None:
    errors = sorted(_validator.iter_errors(doc), key=lambda e: list(e.path))
    if errors:
        e = errors[0]
        loc = "/".join(str(p) for p in e.path) or "<root>"
        raise ScenarioError(f"scenario invalid at {loc}: {e.message}")


def load_scenario(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    validate_scenario(doc)
    return doc


# ---------------------------------------------------------------------------
# builders

def build_grid(spec: dict) -> Grid:
    return Grid(n=spec["n"], h=spec["h"], origin=tuple(spec["origin"]),
                extents=tuple(spec["extents"]))


def build_spatial(spec: dict, grid: Grid) -> SpatialDomain:
    kind = spec.get("shape", "box")
    centers = grid.centers()
    if kind == "inline":
        mask = np.asarray(spec["mask"], dtype=bool).reshape(grid.extents)
        return SpatialDomain(grid, mask)
    if kind == "box":
        lo = np.asarray(spec.get("lo", grid.origin))
        hi = np.asarray(spec.get("hi",
                                 np.asarray(grid.origin)
                                 + np.asarray(grid.extents) * grid.h))
        mask = np.all((centers > lo) & (centers < hi), axis=-1)
        return SpatialDomain(grid, mask)
    if kind in ("ball", "punctured_ball"):
        center = np.asarray(spec["center"], dtype=float)
        radius = float(spec["radius"])
        mask = np.linalg.norm(centers - center, axis=-1) < radius
        if kind == "punctured_ball":
            mask[grid.cell_of(center)] = False
        return SpatialDomain(grid, mask)
    if kind == "box_minus_segment":
        lo = np.asarray(spec.get("lo", grid.origin))
        hi = np.asarray(spec.get("hi",
                                 np.asarray(grid.origin)
                                 + np.asarray(grid.extents) * grid.h))
        mask = np.all((centers > lo) & (centers < hi), axis=-1)
        a = np.asarray(spec["seg_from"], dtype=float)
        b = np.asarray(spec["seg_to"], dtype=float)
        ab = b - a
        denom = float(ab @ ab)
        flat = centers.reshape(-1, grid.n)
        s = np.clip((flat - a) @ ab / denom, 0.0, 1.0) if denom > 0 else 0.0
        dist = np.linalg.norm(flat - (a + np.outer(s, ab)), axis=-1)
        near = (dist < 0.51 * grid.h).reshape(grid.extents)
        return SpatialDomain(grid, mask & ~near)
    raise ScenarioError(f"unknown domain shape {kind!r}")


def build_domain(doc: dict) -> SpaceTimeDomain:
    grid = build_grid(doc["grid"])
    dom = doc["domain"]
    dt = float(dom["dt"])
    cyls = []
    for c in dom["cylinders"]:
        base = build_spatial(c["base"], grid)
        cyls.append(Cylinder(base, float(c["t1"]), float(c["t2"])))
    return SpaceTimeDomain(cyls, dt)


def build_data(spec: dict, m: float) -> BoundaryData:
    kind = spec.get("profile", "constant")
    if kind == "constant":
        return BoundaryData.constant(float(spec["value"]))
    if kind == "linear":
        a, b = float(spec["a"]), float(spec["b"])
        axis = int(spec.get("axis", 0))
        lo = float(spec.get("clip", 0.0))
        return BoundaryData(
            fn=lambda x, t: np.maximum(a + b * x[..., axis], lo),
            bounds=(max(lo, 0.0), abs(a) + abs(b) * 100))
    if kind == "power_linear":
        # (a + b*x_axis)^(1/m): u^m affine, hence a stationary solution
        a, b = float(spec["a"]), float(spec["b"])
        axis = int(spec.get("axis", 0))
        return BoundaryData(
            fn=lambda x, t: np.maximum(a + b * x[..., axis], 0.0) ** (1.0 / m),
            bounds=(0.0, (abs(a) + abs(b) * 100) ** (1.0 / m)))
    if kind == "barenblatt":
        C = float(spec["C"])
        n = int(spec["n"])
        return BoundaryData(
            fn=lambda x, t: barriers.barenblatt(x, t, m, n, C),
            bounds=(0.0, float(spec.get("sup", 1.0))))
    if kind == "tent":
        center = np.asarray(spec["center"], dtype=float)
        t0 = float(spec.get("t0", 0.0))
        width = float(spec["width"])
        floor = float(spec.get("floor", 0.0))
        peak = float(spec.get("peak", 1.0))

        def tent(x, t):
            r = np.sqrt(((x - center) ** 2).sum(-1) + (t - t0) ** 2)
            return np.maximum(peak * (1.0 - r / width), floor)

        return BoundaryData(fn=tent, bounds=(max(floor, 0.0), peak))
    if kind == "ramped_tent":
        center = np.asarray(spec["center"], dtype=float)
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
    spec = spec or {}
    return SolverConfig(
        scheme=spec.get("scheme", "implicit"),
        dt=spec.get("dt"),
        newton_tol=spec.get("newton_tol", 1e-10),
        newton_max=spec.get("newton_max", 40),
        linear_tol=spec.get("linear_tol", 1e-10),
        diffusion=spec.get("diffusion", 1.0),
    )


# ---------------------------------------------------------------------------
# report plumbing

class RunReport:
    def __init__(self, scenario: dict, out_dir: Path):
        self.scenario = scenario
        self.out_dir = out_dir
        self.checks: list[dict] = []
        self.artifacts: list[str] = []
        self.payload: dict = {}
        self.started = time.time()

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
            "wall_time_s": round(time.time() - self.started, 3),
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


# ---------------------------------------------------------------------------
# operation handlers

def _op_solve(doc, report, rng):
    op = doc["operation"]
    m = float(op["m"])
    d = build_domain(doc)
    data = build_data(doc["data"], m)
    cfg = build_config(doc.get("solver"))
    field = solve_union(d, data, cfg, m)
    header = ["t"] + [f"i{a}" for a in range(d.grid.n)] + ["value"]
    report.write_csv("field.csv", header, _field_rows(field))
    worst = 0.0
    for lev in range(1, d.num_levels):
        core = field.scheme_mask[lev]
        cells = np.argwhere(core)
        for idx in cells[:: max(len(cells) // 16, 1)]:
            worst = max(worst, abs(discrete_residual(field, tuple(idx), lev)))
    scale = field.stats["residual_scale"]
    report.check("interior residual within linear_tol x scale",
                 worst <= cfg.linear_tol * scale * 10,
                 {"worst": worst, "scale": scale})
    report.payload["solve"] = {
        "residual_scale": scale,
        "newton_iterations_max": max(field.stats["newton_iterations"],
                                     default=0),
        "cfl_max_dt": cfl_max_dt(data.bounds[1], d.grid.h, m, d.grid.n),
        "sup": field.sup(), "min": field.min(),
    }
    return field


def _op_verify_barrier(doc, report, rng):
    op = doc["operation"]
    spec_args = dict(op["barrier"])
    region = build_domain(doc)
    if spec_args.get("diam") is None:
        spec_args["diam"] = diameter(region)
    if spec_args.get("torsion"):
        t_spec = spec_args.pop("torsion")
        U = build_spatial(t_spec["base"], build_grid(doc["grid"]))
        spec_args["torsion_field"] = capacity.torsion_profile(
            U, tuple(t_spec["x0"]))
    spec_args.pop("torsion", None)
    spec = barriers.BarrierSpec(**spec_args)
    policy = barriers.SamplingPolicy(seed=doc.get("seed", 0),
                                     jitter_factor=op.get("jitter_factor", 10),
                                     max_samples=op.get("max_samples"))
    rep = barriers.verify_sign(spec, region, policy)
    report.payload["sign_report"] = rep.to_dict()
    report.write_csv("violations.csv", ["x", "t", "residual"],
                     ((";".join(map(str, x)), t, r)
                      for x, t, r in rep.violating_samples))
    expect = op.get("expect", "certified")
    if expect == "certified":
        report.check("claimed residual sign certified", rep.certified,
                     {"violations": len(rep.violating_samples)})
    else:
        report.check("violations found (as expected)", not rep.certified,
                     {"violations": len(rep.violating_samples)})
    return rep


def _op_perron(doc, report, rng):
    op = doc["operation"]
    m = float(op["m"])
    d = build_domain(doc)
    data = build_data(doc["data"], m)
    cfg = build_config(doc.get("solver"))
    ladder = op.get("eps_ladder")
    if ladder is None:
        ladder = [frac * data.bounds[1] for frac in perron.DEFAULT_EPS_LADDER]
    bracket = perron.perron_bracket(d, data, ladder, cfg, m)
    disc = perron.discretization_estimate(d, data, cfg, m)
    report.write_csv("gaps.csv", ["epsilon", "gap"],
                     zip(bracket.epsilons, bracket.gaps))
    report.payload["perron"] = bracket.to_dict() | {"disc_est": disc}
    for eps, gap in zip(bracket.epsilons, bracket.gaps):
        report.check(f"gap within 2*eps + 3*disc at eps={eps:g}",
                     gap <= 2 * eps + 3 * disc,
                     {"gap": gap, "eps": eps, "disc": disc})
    dec = all(bracket.gaps[i + 1] <= bracket.gaps[i] + 1e-12
              for i in range(len(bracket.gaps) - 1))
    report.check("gap nonincreasing along the eps ladder", dec,
                 {"gaps": bracket.gaps})
    return bracket


def _family_from_op(op, d, xi0, m):
    if "family" in op:
        fam = [build_data(s, m) for s in op["family"]]
        labels = [s.get("label", s.get("profile", f"member-{i}"))
                  for i, s in enumerate(op["family"])]
        return fam, labels
    return perron.default_data_family(d, xi0)


def _xi0_of(op):
    return (tuple(op["x0"]), float(op["t0"]))


def _removability_from_op(doc, op, d):
    rem = op.get("removability")
    if not rem:
        return None
    grid = build_grid(doc["grid"])
    env_base = build_spatial(rem["base"], grid)
    env = SpaceTimeDomain(
        [Cylinder(env_base, c.t1, c.t2) for c in d.cylinders], d.dt)
    U = d.step_base(0)
    prof = capacity.wiener_profile(U, tuple(rem["x0"]),
                                   k_max=int(rem.get("k_max", 5)))
    verdict = capacity.classify_thickness(prof)
    return perron.RemovabilityCertificate(env, prof, verdict), verdict


def _op_probe(doc, report, rng):
    op = doc["operation"]
    m = float(op["m"])
    d = build_domain(doc)
    cfg = build_config(doc.get("solver"))
    xi0 = _xi0_of(op)
    fam, labels = _family_from_op(op, d, xi0, m)
    radii = [float(r) for r in op["radii"]]
    rem = _removability_from_op(doc, op, d)
    cert = rem[0] if rem else None
    if rem:
        report.payload["thickness"] = rem[1].to_dict()
    probe = perron.regularity_probe(d, xi0, fam, radii, cfg, m,
                                    family_labels=labels, removability=cert)
    report.payload["probe"] = probe.to_dict()
    rows = []
    for i, lab in enumerate(probe.family_labels):
        for r, ug, lg in zip(probe.approach_radii, probe.upper_gaps[i],
                             probe.lower_gaps[i]):
            rows.append((lab, r, ug, lg))
    report.write_csv("probe_gaps.csv",
                     ["member", "radius", "upper_gap", "lower_gap"], rows)
    expect = op.get("expect")
    if expect:
        report.check(f"verdict is {expect!r}", probe.verdict == expect,
                     {"verdict": probe.verdict})
    if op.get("require_intercepts_within_disc", False):
        ok = all(u <= 2 * dd and lo <= 2 * dd for u, lo, dd in
                 zip(probe.upper_intercepts, probe.lower_intercepts,
                     probe.disc_ests))
        report.check("all intercepts within 2x disc estimate", ok,
                     {"upper": probe.upper_intercepts,
                      "lower": probe.lower_intercepts,
                      "disc": probe.disc_ests})
    return probe


def _op_dichotomy(doc, report, rng):
    op = doc["operation"]
    m = float(op["m"])
    d = build_domain(doc)
    cfg = build_config(doc.get("solver"))
    data = build_data(doc["data"], m)
    xi0 = _xi0_of(op)
    radii = [float(r) for r in op["radii"]]
    rem = _removability_from_op(doc, op, d)
    cert = None
    if rem:
        cert = rem[0]
        report.payload["thickness"] = rem[1].to_dict()
        if "expect_thickness" in op:
            report.check(f"complement classified {op['expect_thickness']!r}",
                         rem[1].classification == op["expect_thickness"],
                         rem[1].to_dict())
    res = perron.dichotomy_check(d, xi0, data, radii, cfg, m,
                                 removability=cert)
    report.payload["dichotomy"] = res.to_dict()
    report.write_csv("dichotomy.csv", ["radius", "ball_min"], res.per_radius)
    expect = op.get("expect")
    if expect:
        report.check(f"branch is {expect!r}", res.branch == expect,
                     {"branch": res.branch,
                      "liminf_estimate": res.liminf_estimate})
    return res


def _op_future_probe(doc, report, rng):
    op = doc["operation"]
    m = float(op["m"])
    d = build_domain(doc)
    cfg = build_config(doc.get("solver"))
    xi0 = _xi0_of(op)
    fam, labels = _family_from_op(op, d, xi0, m)
    radii = [float(r) for r in op["radii"]]
    full, trunc, agree = perron.future_truncation_probe(
        d, xi0, fam, radii, cfg, m, family_labels=labels)
    report.payload["future_probe"] = {
        "full": full.to_dict(), "truncated": trunc.to_dict(), "agree": agree}
    report.check("full and truncated verdicts agree", agree,
                 {"full": full.verdict, "truncated": trunc.verdict})
    return full, trunc


def _capacity_at(doc, op, h):
    gspec = dict(doc["grid"])
    factor = gspec["h"] / h
    gspec["h"] = h
    gspec["extents"] = [int(round(e * factor)) for e in gspec["extents"]]
    grid = build_grid(gspec)
    ambient = build_spatial(op["ambient"], grid)
    E = build_spatial(op["set"], grid)
    return capacity.capacity(capacity.CompactMask(grid, E.mask, ambient))


def _op_capacity(doc, report, rng):
    op = doc["operation"]
    grid = build_grid(doc["grid"])
    val = _capacity_at(doc, op, grid.h)
    report.payload["capacity"] = {"value": val, "h": grid.h, "n": grid.n}
    report.check("capacity is nonnegative", val >= 0, {"value": val})
    ladder = op.get("refinement_ladder")
    if ladder:
        values = [_capacity_at(doc, op, float(h)) for h in ladder]
        diffs = [abs(values[i + 1] - values[i])
                 for i in range(len(values) - 1)]
        report.payload["capacity"]["refinement"] = {
            "h": list(ladder), "values": values, "cauchy_diffs": diffs}
        report.check(
            "refinement differences shrink",
            all(diffs[i + 1] <= diffs[i] for i in range(len(diffs) - 1)),
            {"diffs": diffs})
    return val


def _op_wiener(doc, report, rng):
    op = doc["operation"]
    grid = build_grid(doc["grid"])
    U = build_spatial(op["base"], grid)
    prof = capacity.wiener_profile(U, tuple(op["x0"]),
                                   k_max=int(op.get("k_max", 5)))
    verdict = capacity.classify_thickness(prof)
    report.write_csv("wiener.csv",
                     ["k", "r", "cap", "integrand", "partial_sum"],
                     ((row["k"], row["r"], row["cap"], row["integrand"],
                       row["partial_sum"]) for row in prof.to_rows()))
    report.payload["wiener"] = {
        "profile": list(prof.to_rows()),
        "ambient_halfwidth": prof.ambient_halfwidth,
        "ambient_sensitivity": prof.ambient_sensitivity,
        "classification": verdict.to_dict(),
    }
    expect = op.get("expect")
    if expect:
        report.check(f"classified {expect!r}",
                     verdict.classification == expect, verdict.to_dict())
    return prof, verdict


def _op_torsion(doc, report, rng):
    op = doc["operation"]
    grid = build_grid(doc["grid"])
    U = build_spatial(op["base"], grid)
    field = capacity.torsion_profile(U, tuple(op["x0"]))
    cells = np.nonzero(U.mask)
    report.write_csv("torsion.csv",
                     [f"i{a}" for a in range(grid.n)] + ["value"],
                     zip(*cells, field.values[cells]))
    x0 = np.asarray(op["x0"], dtype=float)
    centers = grid.centers()
    phi = np.linalg.norm(centers - x0, axis=-1)
    dominates = bool(np.all(field.values[U.mask] >= phi[U.mask] - 1e-9))
    report.check("profile dominates |x - x0|", dominates)
    report.payload["torsion"] = {
        "min": float(np.nanmin(field.values[U.mask])),
        "max": float(np.nanmax(field.values[U.mask])),
    }
    return field


def _op_degiorgi(doc, report, rng):
    op = doc["operation"]
    m = float(op["m"])
    d = build_domain(doc)
    data = build_data(doc["data"], m)
    cfg = build_config(doc.get("solver"))
    field = solve_union(d, data, cfg, m)
    x0 = tuple(op["x0"])
    t0, rho, sigma = float(op["t0"]), float(op["rho"]), float(op["sigma"])
    M = float(op.get("M", 0.0))
    k = float(op.get("k", 0.5 * field.sup()))
    rep = degiorgi.iterate(field, x0, t0, rho, sigma, M, k,
                           j_max=int(op.get("j_max", 20)))
    report.write_csv("iteration.csv",
                     ["j", "k_j", "Y_j", "A_j_measure", "ratio", "bound"],
                     ((r["j"], r["k_j"], r["Y_j"], r["A_j_measure"],
                       r["ratio"], r["bound"]) for r in rep.to_rows()))
    report.payload["degiorgi"] = rep.to_dict()
    report.check("level inequality holds at every j",
                 rep.all_level_checks_pass)
    mono = all(rep.energies[i + 1] <= rep.energies[i] * (1 + 1e-12)
               for i in range(len(rep.energies) - 1))
    report.check("energies nonincreasing", mono)
    sup = degiorgi.sup_estimate_check(field, x0, t0, rho, sigma, M)
    report.payload["sup_estimate"] = sup.to_dict()
    report.check("sup estimate fitted a finite C",
                 sup.fitted_C is not None and math.isfinite(sup.fitted_C))
    return rep, sup


def _op_barenblatt(doc, report, rng):
    op = doc["operation"]
    m = float(op["m"])
    n = int(op["n"])
    C0 = float(op["C"])
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
        t_start = time.time()
        u = solve_union(d, data, cfg, m)
        wall = time.time() - t_start
        exact = barriers.barenblatt(g.centers(), t2, m, n, C0)
        err = np.abs(u.values[-1] - exact)[U.mask]
        l1 = float(err.sum()) * h ** n
        results.append({"level": lev, "h": h, "steps": steps, "l1": l1,
                        "linf": float(err.max()), "wall_s": wall})
    # wall_s stays out of the CSV so that reruns write identical files
    report.write_csv("convergence.csv",
                     ["level", "h", "steps", "l1_error", "linf_error"],
                     ((r["level"], r["h"], r["steps"], r["l1"], r["linf"])
                      for r in results))
    report.payload["barenblatt"] = {"results": results}
    for i in range(len(results) - 1):
        report.check(
            f"L1 error decreases from level {results[i]['level']} to "
            f"{results[i + 1]['level']}",
            results[i + 1]["l1"] < results[i]["l1"],
            {"from": results[i]["l1"], "to": results[i + 1]["l1"]})
    if len(results) >= 2:
        orders = [math.log2(results[i]["l1"] / results[i + 1]["l1"])
                  for i in range(len(results) - 1)]
        report.payload["barenblatt"]["orders"] = orders
        report.check("empirical order at least 0.8",
                     all(o >= 0.8 for o in orders), {"orders": orders})
    budget = op.get("runtime_budget_s")
    if budget:
        report.check(f"each level within {budget} s",
                     all(r["wall_s"] < budget for r in results),
                     {"walls": [r["wall_s"] for r in results]})
    return results


def _campaign_pair(params, d, cfg, m):
    coefs, base, gap = params

    def mk(shift):
        def fn(x, t):
            v = base + shift
            for ax, at, amp in coefs:
                v = v + amp * np.sin(ax * x[..., 0] + at * x[..., -1]
                                     + (ax - at) * t)
            return np.maximum(v, 0.0)
        return fn

    f = BoundaryData(fn=mk(0.0), bounds=(0.0, base + 1.0))
    gdat = BoundaryData(fn=mk(gap), bounds=(0.0, base + gap + 1.0))
    lo = solve_union(d, f, cfg, m)
    hi = solve_union(d, gdat, cfg, m)
    return comparison_check(hi, lo)


def _op_comparison_campaign(doc, report, rng):
    op = doc["operation"]
    m = float(op["m"])
    d = build_domain(doc)
    cfg = build_config(doc.get("solver"))
    trials = int(op.get("trials", 100))
    threads = int(doc.get("threads", 1))
    # trial parameters are drawn sequentially so the campaign is
    # reproducible no matter how the solves are scheduled
    params = []
    for _ in range(trials):
        coefs = [(rng.uniform(-4, 4), rng.uniform(-4, 4),
                  rng.uniform(0, 0.3)) for _ in range(3)]
        params.append((coefs, rng.uniform(0.5, 1.5), rng.uniform(0.0, 0.7)))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(
                lambda p: _campaign_pair(p, d, cfg, m), params))
    else:
        outcomes = [_campaign_pair(p, d, cfg, m) for p in params]
    ordered = sum(1 for ok, _ in outcomes if ok)
    violations = [{"trial": i, "count": len(viol)}
                  for i, (ok, viol) in enumerate(outcomes) if not ok]
    report.payload["campaign"] = {"trials": trials, "ordered": ordered,
                                  "violations": violations}
    report.check(f"{trials}/{trials} ordered with zero interior violations",
                 ordered == trials, {"ordered": ordered})
    return ordered


def _op_scaling_check(doc, report, rng):
    op = doc["operation"]
    m = float(op["m"])
    d = build_domain(doc)
    data = build_data(doc["data"], m)
    worst_overall = 0.0
    for a in op.get("multipliers", [0.25, 4.0]):
        cfg_a = replace(build_config(doc.get("solver")), diffusion=a)
        u_a = solve_union(d, data, cfg_a, m)
        v = perron.scale_transform(u_a, a, m)
        v_unit = Field(v.domain, v.values, v.defined, v.scheme_mask, m,
                       SolverConfig(diffusion=1.0), v.stats)
        worst = 0.0
        for lev in range(1, d.num_levels):
            cells = np.argwhere(v_unit.scheme_mask[lev])
            for idx in cells[:: max(len(cells) // 8, 1)]:
                worst = max(worst,
                            abs(discrete_residual(v_unit, tuple(idx), lev)))
        scale = u_a.stats["residual_scale"] * a ** (1.0 / (m - 1))
        tol = build_config(doc.get("solver")).linear_tol * scale
        report.check(f"transformed field solves the unit scheme (a={a})",
                     worst <= tol, {"worst": worst, "tol": tol})
        worst_overall = max(worst_overall, worst)
    report.payload["scaling"] = {"worst_residual": worst_overall}
    return worst_overall


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


def run_scenario(doc: dict, out_dir) -> dict:
    """Execute one scenario; returns the report dict (also written to disk)."""
    validate_scenario(doc)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = int(doc.get("seed", 0))
    rng = np.random.Generator(np.random.Philox(seed))
    report = RunReport(doc, out_dir)
    handler = _HANDLERS[doc["operation"]["kind"]]
    handler(doc, report, rng)
    return report.finalize()
