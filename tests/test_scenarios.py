import ast
import json
from pathlib import Path

import numpy as np
import pytest

from pmelab import perron, scenarios, solver
from pmelab.barriers import barenblatt
from pmelab.bundled import bundled_scenario, list_bundled
from pmelab.geometry import Cylinder, Grid, SpaceTimeDomain
from pmelab.perron import default_data_family
from pmelab.scenarios import (
    SCHEMA,
    ScenarioError,
    build_data,
    build_domain,
    build_grid,
    build_spatial,
    run_scenario,
)
from pmelab.solver import SolverConfig, solve_union


GRID = {"n": 2, "h": 0.25, "origin": [0.0, 0.0], "extents": [8, 8]}


def test_inline_mask_roundtrip():
    g = build_grid(GRID)
    mask = np.zeros((8, 8), dtype=int)
    mask[2:6, 2:6] = 1
    U = build_spatial({"shape": "inline", "mask": mask.ravel().tolist()}, g)
    assert U.mask.sum() == 16
    assert (U.mask == mask.astype(bool)).all()


def test_ball_and_punctured_ball():
    g = build_grid(GRID)
    ball = build_spatial({"shape": "ball", "center": [1.0, 1.0],
                          "radius": 0.8}, g)
    punct = build_spatial({"shape": "punctured_ball", "center": [1.0, 1.0],
                           "radius": 0.8}, g)
    assert punct.mask.sum() == ball.mask.sum() - 1
    assert not punct.mask[g.cell_of((1.0, 1.0))]


def test_box_minus_segment_removes_one_cell_line():
    g = build_grid(GRID)
    slit = build_spatial({"shape": "box_minus_segment",
                          "seg_from": [0.375, 1.125],
                          "seg_to": [1.625, 1.125]}, g)
    full = build_spatial({"shape": "box"}, g)
    removed = full.mask & ~slit.mask
    assert removed.sum() == 6          # six cell centers on the segment
    assert removed[:, 4].sum() == 6


def test_affine_profile_sup_is_its_maximum_over_the_grid():
    # the declared sup sets Newton's residual scale, so it must be what the
    # data reach on the grid, not a constant far above every sample
    doc = bundled_scenario("scaling-exactness")
    m = float(doc["operation"]["m"])
    d = build_domain(doc)
    u = solve_union(d, build_data(doc["data"], m, d.grid), SolverConfig(), m)
    (_, declared), (_, observed) = u.stats["data_bounds"].values()
    slack = abs(doc["data"]["b"]) * d.grid.h
    assert observed <= declared <= observed + slack

def test_scaling_check_fails_a_transform_off_in_the_twelfth_digit(
        tmp_path, monkeypatch):
    # the residual bound is Newton's tolerance, which this mutant meets; the
    # rounding-level comparison with the multiplied solve's residual does not
    exact = perron.scale_transform
    monkeypatch.setattr(perron, "scale_transform",
                        lambda f, a, m: exact(f, a, m).scaled(1 + 1e-12))
    report = run_scenario(bundled_scenario("scaling-exactness"), tmp_path)
    passed = {c["check"]: c["pass"] for c in report["checks"]}
    for a in (0.25, 4.0):
        assert passed[f"transformed field solves the unit scheme (a={a})"]
        assert not passed[f"transformed residual is a^(1/(m-1)) times the "
                          f"multiplied one (a={a})"]


def test_unknown_shape_and_profile_rejected():
    g = build_grid(GRID)
    with pytest.raises(ScenarioError):
        build_spatial({"shape": "pentagon"}, g)
    with pytest.raises(ScenarioError):
        build_data({"profile": "mystery"}, 2.0, g)


def test_punctured_ball_centred_off_the_grid_is_refused():
    # cell_of clips the centre (5, 5) to the grid: cell (3, 3) was removed
    g = Grid(n=2, h=0.25, origin=(0.0, 0.0), extents=(4, 4))
    spec = {"shape": "punctured_ball", "center": [5.0, 5.0], "radius": 9.0}
    with pytest.raises(ScenarioError, match=r"cyl/center \[5\.0, 5\.0\] lies "
                                            r"off the grid"):
        build_spatial(spec, g, "cyl")
    # a centre on the grid's closed box punctures the cell holding it
    for center, cell in (([1.0, 0.0], (3, 0)), ([0.3, 0.6], (1, 2))):
        U = build_spatial(spec | {"center": center}, g)
        assert list(zip(*np.nonzero(~U.mask))) == [cell]


def test_data_profiles_evaluate():
    m = 2.0
    g = build_grid(GRID)
    lin = build_data({"profile": "linear", "a": 1.0, "b": 2.0}, m, g)
    assert lin.sample(np.array([0.25, 0.0]), 0.0) == pytest.approx(1.5)
    pl = build_data({"profile": "power_linear", "a": 1.0, "b": 2.0}, m, g)
    assert pl.sample(np.array([0.25, 0.0]), 0.0) == pytest.approx(1.5 ** 0.5)
    tent = build_data({"profile": "tent", "center": [0.0, 0.0],
                       "width": 1.0, "peak": 2.0}, m, g)
    assert tent.sample(np.zeros(2), 0.0) == pytest.approx(2.0)
    assert tent.sample(np.array([3.0, 0.0]), 0.0) == 0.0
    rt = build_data({"profile": "ramped_tent", "center": [0.0, 0.0],
                     "width": 1.0, "ramp": 0.1}, m, g)
    assert rt.sample(np.zeros(2), 0.0) == 0.0
    assert rt.sample(np.zeros(2), 0.2) == pytest.approx(1.0)

    # one call on a (k, n) point array equals the stack of one-point calls,
    # bit for bit, for every named profile, the probe family and the oracle
    xs = np.linspace(-0.6, 0.9, 7)
    pts = np.stack(np.meshgrid(xs, xs[::-1] + 0.05), axis=-1).reshape(-1, 2)
    times = (0.02, 0.07, 1.3)
    profiles = [
        build_data({"profile": "constant", "value": 0.4}, m, g),
        lin, pl, tent, rt,
        build_data({"profile": "linear", "a": 0.5, "b": -1.0, "axis": 1,
                    "clip": 0.1}, m, g),
        build_data({"profile": "barenblatt", "C": 0.1, "n": 2}, m, g),
        build_data({"profile": "tent", "center": [0.2, -0.1], "t0": 0.05,
                    "width": 0.8, "floor": 0.05}, m, g),
    ]
    U = build_spatial({"shape": "box"}, g)
    d = SpaceTimeDomain([Cylinder(U, 0.0, 0.5)], dt=0.25)
    family, _ = default_data_family(d, ((0.125, 1.0), 0.25))
    for data in profiles + family:
        for t in times:
            batch = data.sample(pts, t)
            assert batch.shape == (len(pts),)
            singles = np.array([data.sample(p, t) for p in pts])
            assert np.array_equal(batch, singles)
            grid_shaped = data.sample(pts.reshape(7, 7, 2), t)
            assert np.array_equal(grid_shaped, batch.reshape(7, 7))
        # a time per point, as a solve samples its parabolic boundary
        each = np.resize(times, len(pts))
        batch = data.sample(pts, each)
        singles = np.array([data.sample(p, t) for p, t in zip(pts, each)])
        assert batch.tobytes() == singles.tobytes()
    for t in times:
        batch = barenblatt(pts, t, 2.0, 2, 0.02)
        singles = np.array([barenblatt(p, t, 2.0, 2, 0.02) for p in pts])
        assert np.array_equal(batch, singles)
        assert (batch == 0).any() and (batch > 0).any()


def test_capacity_operation_with_refinement_ladder(tmp_path):
    doc = {
        "name": "cap-refine",
        "seed": 0,
        "grid": {"n": 2, "h": 0.1, "origin": [-1.25, -1.25],
                 "extents": [25, 25]},
        "operation": {
            "kind": "capacity",
            "ambient": {"shape": "box"},
            # a grid-aligned box rasterizes identically at every ladder h,
            # so the differences isolate pure resolution effects
            "set": {"shape": "box", "lo": [-0.4, -0.4], "hi": [0.4, 0.4]},
            "refinement_ladder": [0.1, 0.05, 0.025],
        },
    }
    report = run_scenario(doc, tmp_path)
    assert report["all_pass"]
    refine = report["capacity"]["refinement"]
    # fixed set: successive capacity differences shrink
    assert refine["cauchy_diffs"][1] <= refine["cauchy_diffs"][0]


def test_explicit_solve_passes_its_residual_check(tmp_path):
    # dt = 2.5e-4 is under the CFL bound 4.88e-4; the report checks the
    # explicit scheme (w at the previous level), the one that was solved
    doc = {
        "name": "explicit-tent-solve",
        "seed": 0,
        "grid": {"n": 2, "h": 0.0625, "origin": [-0.5, -0.5],
                 "extents": [16, 16]},
        "domain": {"dt": 2.5e-4, "cylinders": [
            {"base": {"shape": "box"}, "t1": 0.0, "t2": 0.01}]},
        "data": {"profile": "tent", "center": [0.0, 0.0], "width": 0.6,
                 "peak": 1.0},
        "solver": {"scheme": "explicit"},
        "operation": {"kind": "solve", "m": 2.0},
    }
    report = run_scenario(doc, tmp_path)
    assert report["all_pass"]
    (check,) = report["checks"]
    assert check["detail"]["worst"] <= 1e-10 * check["detail"]["scale"]


def test_implicit_solve_passes_its_newton_tolerance(tmp_path):
    # Newton stops at newton_tol * scale, so that is what the report checks;
    # a check at linear_tol * scale failed this solve at worst 5.0e-5
    doc = {
        "name": "loose-newton-tent-solve",
        "seed": 0,
        "grid": {"n": 2, "h": 0.0625, "origin": [-0.5, -0.5],
                 "extents": [16, 16]},
        "domain": {"dt": 0.01, "cylinders": [
            {"base": {"shape": "box"}, "t1": 0.0, "t2": 0.1}]},
        "data": {"profile": "tent", "center": [0.0, 0.0], "width": 0.6,
                 "peak": 1.0},
        "solver": {"newton_tol": 1e-6},
        "operation": {"kind": "solve", "m": 2.0},
    }
    report = run_scenario(doc, tmp_path)
    assert report["all_pass"]
    (check,) = report["checks"]
    assert check["detail"]["worst"] > 1e-10 * check["detail"]["scale"]
    solve = report["solve"]
    assert solve["linear_iterations"] > 0
    assert solve["line_search_failures"] == 0
    header = (tmp_path / "field.csv").read_text().splitlines()[0]
    assert "iterations" not in header and "failures" not in header


def test_slit_scenario_runs(tmp_path):
    report = run_scenario(bundled_scenario("slit-box-wiener"), tmp_path)
    assert report["all_pass"]
    assert report["wiener"]["classification"]["classification"] == "thick"
    assert report["wiener"]["classification"]["confidence"] == "low"


def test_torsion_operation_pins_its_check_payload_and_table(tmp_path):
    # x0 is the center of the box's boundary cell (0, 4)
    doc = {"name": "torsion-box", "seed": 0, "grid": GRID,
           "operation": {"kind": "torsion", "base": {"shape": "box"},
                         "x0": [0.125, 1.125]}}
    report = run_scenario(doc, tmp_path)
    assert report["checks"] == [{"check": "profile dominates |x - x0|",
                                 "pass": True, "detail": None}]
    assert list(report["torsion"]) == ["min", "max"]
    assert report["torsion"]["min"] == 0.0
    lines = (tmp_path / "torsion.csv").read_text().splitlines()
    assert lines[0] == "i0,i1,value"
    assert len(lines) == 1 + 64
    assert lines[1 + 4] == "0,4,0"


def test_perron_operation_solves_its_domain_in_one_fine_pass(
        monkeypatch, tmp_path):
    calls, solve_many = [], solver.solve_union_many

    def counted(d, datas, cfg, m):
        calls.append((d, len(datas)))
        return solve_many(d, datas, cfg, m)

    monkeypatch.setattr(solver, "solve_union_many", counted)
    monkeypatch.setattr(perron, "solve_union_many", counted)
    doc = bundled_scenario("union-resolutivity")
    report = run_scenario(doc, tmp_path)
    assert report["all_pass"], report["checks"]
    # f itself and the f + eps, (f - eps)_+ ladder, then f's coarse companion
    (fine, members), (coarse, one) = calls
    assert members == 1 + 2 * len(doc["operation"]["eps_ladder"])
    assert coarse is perron.coarsen_domain(fine) and one == 1


SIGN_REPORT_KEYS = ["kind", "claimed_sign", "min_residual", "max_residual",
                    "violations", "worst_violation", "samples_checked",
                    "samples_excluded", "certified"]


# earliest_super needs j >= 129 on this region; the torsion cases build
# their torsion field on the region's grid
@pytest.mark.parametrize("barrier, expect, check", [
    ({"kind": "earliest_super", "c": 1.0, "j": 1, "m": 2.0, "n": 2,
      "diam": 1.0}, "violations", "violations found (as expected)"),
    ({"kind": "torsion_sub", "c": 1.0, "j": 4, "m": 2.0, "n": 2,
      "diam": 1.5, "anchor": [[0.5, 0.0], 0.0],
      "torsion": {"base": {"shape": "box"}, "x0": [0.5, 0.0]}},
     "certified", "claimed residual sign certified"),
    ({"kind": "torsion_super", "c": 1.0, "j": 4, "m": 2.0, "n": 2,
      "diam": 1.5, "anchor": [[0.5, 0.0], 0.0],
      "torsion": {"base": {"shape": "box"}, "x0": [0.5, 0.0]}},
     "certified", "claimed residual sign certified"),
])
def test_verify_barrier_operation_pins_its_check_payload_and_table(
        tmp_path, barrier, expect, check):
    doc = bundled_scenario("barrier-certification")
    doc["operation"].update(barrier=barrier, expect=expect, max_samples=500)
    report = run_scenario(doc, tmp_path)
    sign = report["sign_report"]
    assert list(sign) == SIGN_REPORT_KEYS
    assert sign["certified"] == (expect == "certified")
    assert report["checks"] == [{"check": check, "pass": True, "detail": {
        "violations": sign["violations"]}}]
    assert (sign["worst_violation"] is None) == sign["certified"]
    lines = (tmp_path / "violations.csv").read_text().splitlines()
    assert lines[0] == "x,t,residual"
    assert len(lines) == 1 + sign["violations"]
    # every number of every cell, the x coordinates too, is written .17g
    for line in lines[1:]:
        for cell in line.split(","):
            for c in cell.split(";"):
                assert c == format(float(c), ".17g")


@pytest.mark.parametrize("operation, where", [
    ({"kind": "torsion", "base": {"shape": "box"}, "x0": [0.125]},
     "operation/x0"),
    ({"kind": "verify-barrier",
      "barrier": {"kind": "torsion_sub", "c": 1.0, "j": 4, "m": 2.0, "n": 2,
                  "torsion": {"base": {"shape": "box"},
                              "x0": [0.5, 0.0, 0.0]}}},
     "operation/barrier/torsion/x0"),
])
def test_torsion_poles_of_another_dimension_are_input_errors(
        tmp_path, operation, where):
    doc = {"name": "bad-pole", "grid": GRID, "operation": operation,
           "domain": {"dt": 0.05, "cylinders": [
               {"base": {"shape": "box"}, "t1": 0.0, "t2": 0.5}]}}
    with pytest.raises(ScenarioError, match=where):
        run_scenario(doc, tmp_path)


def _keys_read(names):
    """The constant keys that scenarios.py reads from each variable of
    ``names`` as ``var["key"]`` or ``var.get("key", ...)``."""
    read = {name: set() for name in names}
    tree = ast.parse(Path(scenarios.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            owner, key = node.value, node.slice
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get"):
            owner, key = node.func.value, node.args[0]
        else:
            continue
        if (isinstance(owner, ast.Name) and owner.id in read
                and isinstance(key, ast.Constant)):
            read[owner.id].add(key.value)
    return read


def test_operation_schema_types_exactly_the_keys_the_handlers_read():
    # the operation block and its removability block are closed, so a key
    # the handlers read and the schema lacks would refuse valid files, and
    # one the schema has and no handler reads would be silently ignored;
    # run_scenario reads kind to pick the handler
    read = _keys_read(["op", "rem"])
    operation = SCHEMA["properties"]["operation"]
    assert operation["additionalProperties"] is False
    assert set(operation["properties"]) == read["op"] | {"kind"}
    removability = operation["properties"]["removability"]
    assert removability["additionalProperties"] is False
    assert set(removability["properties"]) == read["rem"]


def _first_error(errors):
    """The (path, message) that ``validate_scenario`` reports, or None."""
    first = min(errors, key=lambda e: list(e[0]), default=None)
    return first and (list(first[0]), first[1])


def _mutants(node, deep=True):
    """Copies of ``node`` changed at one JSON path each: its value
    replaced, an unknown key added to it, or one of its keys or items
    deleted; deeper paths too unless ``deep`` is false."""
    yield from ("x", True, 2.5, 7, None, [])
    if isinstance(node, dict):
        yield node | {"unknown_key": 1}
        for key, child in node.items():
            yield {k: v for k, v in node.items() if k != key}
            if deep:
                yield from (node | {key: m} for m in _mutants(child))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield node[:i] + node[i + 1:]
            if deep:
                yield from (node[:i] + [m] + node[i + 1:]
                            for m in _mutants(child))


def test_schema_checker_agrees_with_draft7_on_the_corpus_and_its_mutants():
    # jsonschema is the reference here only; a run never imports it.  The
    # root schema relates no two top-level blocks, so a change inside one
    # block is checked against that block's schema alone, once per
    # distinct changed block: that keeps this test near 1 s.
    jsonschema = pytest.importorskip("jsonschema")
    schemas = {None: SCHEMA} | SCHEMA["properties"]
    reference = {key: jsonschema.Draft7Validator(sub)
                 for key, sub in schemas.items()}
    seen = set()
    for name, _ in list_bundled():
        doc = bundled_scenario(name)
        assert _first_error(scenarios._schema_errors(doc, SCHEMA)) is None
        cases = [(None, m) for m in _mutants(doc, deep=False)]
        cases += [(key, m) for key, part in doc.items()
                  for m in _mutants(part)]
        for key, mutant in cases:
            seen_key = json.dumps([key, mutant], sort_keys=True)
            if seen_key in seen:
                continue
            seen.add(seen_key)
            want = _first_error((e.path, e.message)
                                for e in reference[key].iter_errors(mutant))
            got = _first_error(scenarios._schema_errors(mutant, schemas[key]))
            assert got == want, (key, mutant)
    assert len(seen) > 2000


# the keywords scenarios._schema_errors implements; it ignores any other
CHECKED_KEYWORDS = {
    "type", "properties", "required", "additionalProperties", "enum",
    "const", "minimum", "maximum", "exclusiveMinimum", "items", "minItems",
    "maxItems", "allOf", "if", "then"}


def test_schema_uses_only_the_keywords_the_checker_implements():
    def keywords(schema):
        if isinstance(schema, bool):
            return set()
        subs = [*schema.get("properties", {}).values(), *schema.get(
            "allOf", ()), schema.get("if", True), schema.get("then", True)]
        items = schema.get("items", [])
        subs += items if isinstance(items, list) else [items]
        return set(schema).union(*map(keywords, subs))

    assert keywords(SCHEMA) <= CHECKED_KEYWORDS
