import dataclasses
import json
import re
from importlib.resources import files
from pathlib import Path

import pytest

from pmelab.barriers import KINDS, BarrierSpec
from pmelab.bundled import bundled_scenario, list_bundled
from pmelab.cli import build_parser, main
from pmelab.scenarios import SCHEMA, ScenarioError, load_scenario


CORPUS = sorted((files("pmelab") / "corpus").glob("*.json"))


def test_list_bundled_contains_the_corpus():
    assert [name for name, _ in list_bundled()] == [
        "barenblatt-convergence", "barrier-certification",
        "bottom-regularity", "comparison-campaign", "constant-solve",
        "degiorgi-barenblatt", "future-independence",
        "future-independence-stack", "punctured-disk", "scaling-exactness",
        "slit-box-wiener", "square-cylinder", "square-cylinder-wiener",
        "union-resolutivity", "wiener-puncture-vs-slit"]
    for _, desc in list_bundled():
        assert desc      # every scenario explains what it exercises


def test_bundled_scenarios_validate():
    # each corpus file loads as a user file would, under its own name
    assert len(CORPUS) == 15
    for path in CORPUS:
        doc = load_scenario(path)
        assert doc["name"] == path.stem
        assert bundled_scenario(path.stem) == doc


def test_unknown_bundled_name():
    for name in ("no-such-scenario", "../pyproject", "corpus/constant-solve"):
        with pytest.raises(KeyError, match="known: barenblatt-convergence"):
            bundled_scenario(name)


def test_schema_violation_names_field(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "operation": {"kind": "nope"}}))
    with pytest.raises(ScenarioError, match="operation"):
        load_scenario(bad)


def test_cli_list_and_run(tmp_path, capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "constant-solve" in out
    code = main(["run", "--bundled", "constant-solve",
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "constant-solve" / "report.json")
                        .read_text())
    assert report["all_pass"]
    assert report["solve"]["line_search_backtracks"] == 0
    assert (tmp_path / "constant-solve" / "field.csv").exists()


def test_cli_exit_codes(tmp_path):
    assert main(["run", "--bundled", "no-such", "--out", str(tmp_path)]) == 2
    assert main(["run", "--bundled", "../pyproject",
                 "--out", str(tmp_path)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["run", "--scenario", str(missing),
                 "--out", str(tmp_path)]) == 2
    assert main(["run", "--scenario", str(tmp_path),
                 "--out", str(tmp_path)]) == 2
    # the campaign runs serially; there is no --threads flag
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bundled", "comparison-campaign", "--threads", "2",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


# The solver block is closed: a key SolverConfig lacks, such as dt, is an
# input error rather than a setting that is silently ignored.
@pytest.mark.parametrize("where, key, value", [
    ("operation", "trials", "abc"), ("operation", "trials", 0),
    ("solver", "newton_tol", "x"), ("solver", "newton_max", 2.5),
    ("solver", "scheme", "rk4"), ("solver", "dt", 0.01)])
def test_cli_rejects_malformed_counts(tmp_path, capsys, where, key, value):
    doc = bundled_scenario("comparison-campaign")
    doc.setdefault(where, {})[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert where in err and key in err


# The top level and the grid block are closed, and the grid has one
# origin coordinate and one extent per axis, so a misspelled block, an
# extra grid key or a short origin is an input error naming the field.
@pytest.mark.parametrize("where, key, value", [
    ((), "solvr", {"newton_tol": 1e-3}),
    (("grid",), "spacing", 0.0625),
    (("grid",), "origin", [-0.5]),
    (("grid",), "extents", [16, 16, 16]),
])
def test_cli_rejects_open_top_level_and_grid(tmp_path, capsys, where, key,
                                             value):
    doc = bundled_scenario("constant-solve")
    target = doc
    for part in where:
        target = target[part]
    target[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert all(part in err for part in where) and key in err


def test_top_level_threads_is_accepted_and_unread(tmp_path):
    # the benchmark's campaign workload sets it on the documents it runs
    doc = bundled_scenario("constant-solve")
    doc["threads"] = 1
    path = tmp_path / "threads.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("name, path, value", [
    ("punctured-disk", "operation/removability/k_max", "x"),
    ("square-cylinder", "operation/radii", ["x"]),
    ("barenblatt-convergence", "operation/levels", [0.5]),
    ("barrier-certification", "operation/barrier/j", "x"),
    ("bottom-regularity", "operation/family", [1.0]),
])
def test_cli_rejects_malformed_nested_fields(tmp_path, capsys, name, path,
                                             value):
    doc = bundled_scenario(name)
    *parents, key = path.split("/")
    target = doc
    for part in parents:
        target = target[part]
    target[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    assert path in capsys.readouterr().err


# Barrier, data-profile, domain, base and operation fields are typed, and
# the barrier, domain, base, operation and removability blocks are closed:
# each of these was an uncaught TypeError, UFuncTypeError or ValueError,
# or (a misspelled key) ran with the default.  A value of None deletes the
# field: a missing profile parameter was an input error that did not say
# where.  The schema types an operation key whatever the kind, so a solve
# shows the typed refinement_ladder.  A point has one coordinate per grid
# axis: a 3-D box bound was a numpy broadcast error (exit 1), and a 1-D
# center, pole, data-profile center or barrier anchor broadcast silently.
# A verify-barrier expect other than certified or violations ran as
# violations.
@pytest.mark.parametrize("name, path, value", [
    ("barrier-certification", "operation/barrier/dima", 1.0),
    ("bottom-regularity", "operation/family/0/value", "x"),
    ("constant-solve", "data/value", "x"),
    ("barrier-certification", "operation/jitter_factor", "x"),
    ("barrier-certification", "operation/jitter_factor", 2.5),
    ("constant-solve", "domain/dt", "x"),
    ("constant-solve", "domain/dt", 0.0),
    ("constant-solve", "domain/step", 0.1),
    ("constant-solve", "domain/cylinders", None),
    ("constant-solve", "domain/cylinders/0/t2", "x"),
    ("constant-solve", "domain/cylinders/0/t1", None),
    ("constant-solve", "data/value", None),
    ("bottom-regularity", "operation/family/1/b", None),
    ("punctured-disk", "operation/removability/base/radius", "x"),
    ("punctured-disk", "domain/cylinders/0/base/center", None),
    ("constant-solve", "domain/cylinders/0/base/lo", "x"),
    ("constant-solve", "domain/cylinders/0/base/radius", 0.5),
    ("constant-solve", "domain/cylinders/0/base/shape", "pentagon"),
    ("slit-box-wiener", "operation/base/seg_from", "x"),
    ("constant-solve", "domain/cylinders/0/base",
     {"shape": "inline", "mask": [1, 1, 1]}),
    ("constant-solve", "operation/refinement_ladder", ["x"]),
    ("slit-box-wiener", "operation/k_mx", 4),
    ("punctured-disk", "operation/removability/k_mx", 5),
    ("constant-solve", "domain/cylinders/0/base/lo", [-0.5, -0.5, -0.5]),
    ("constant-solve", "domain/cylinders/0/base/hi", [0.5]),
    ("punctured-disk", "domain/cylinders/0/base/center", [0.0]),
    ("punctured-disk", "operation/removability/base/center", [0.0]),
    ("punctured-disk", "operation/removability/x0", [0.0, 0.0, 0.0]),
    ("punctured-disk", "operation/x0", [0.0]),
    ("slit-box-wiener", "operation/base/seg_to", [1.0, 0.0, 0.0]),
    ("slit-box-wiener", "operation/x0", [0.0]),
    ("degiorgi-barenblatt", "operation/x0", [0.0]),
    ("barrier-certification", "operation/expect", "certfied"),
    ("punctured-disk", "data/center", [0.0]),
    ("barrier-certification", "operation/barrier/anchor", [[0.5], 0.0]),
])
def test_cli_rejects_untyped_barrier_and_data_fields(tmp_path, capsys, name,
                                                     path, value):
    doc = bundled_scenario(name)
    *parents, key = path.split("/")
    target = doc
    for part in parents:
        target = target[int(part) if part.isdigit() else part]
    if value is None:
        del target[key]
    else:
        target[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "/".join(parents) in err and key in err


def test_barrier_schema_names_the_spec_fields():
    barrier = SCHEMA["properties"]["operation"]["properties"]["barrier"]
    spec_fields = {f.name for f in dataclasses.fields(BarrierSpec)}
    assert set(barrier["properties"]) == (
        spec_fields - {"torsion_field"} | {"torsion"})
    assert barrier["properties"]["kind"]["enum"] == list(KINDS)
    assert barrier["additionalProperties"] is False


def test_cli_rejects_non_numeric_operation_field(tmp_path, capsys):
    doc = bundled_scenario("constant-solve")
    doc["operation"] = {"kind": "solve", "m": "x"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert "operation/m" in capsys.readouterr().err


def test_cli_subcommand_guards_operation_kind(tmp_path):
    doc = bundled_scenario("constant-solve")
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 0
    assert main(["wiener", "--scenario", str(path),
                 "--out", str(tmp_path)]) == 2


def test_cli_failing_check_returns_one(tmp_path):
    doc = bundled_scenario("constant-solve")
    doc["operation"] = {
        "kind": "verify-barrier",
        "barrier": {"kind": "earliest_super", "c": 1.0, "j": 1,
                    "m": 2.0, "n": 2, "diam": 1.0},
        "expect": "certified",      # j = 1 is insufficient: check must fail
    }
    path = tmp_path / "fail.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 1


def test_cli_verify_barrier_direct_flags(tmp_path):
    code = main(["verify-barrier", "--kind", "quadratic_sub", "--c", "1.0",
                 "--j", "3", "--m", "2.0", "--n", "2", "--diam", "2.0",
                 "--out", str(tmp_path)])
    assert code == 0


def _assert_reruns_identical(tmp_path, name, args):
    for sub in ("a", "b"):
        code = main(["run", *args, "--out", str(tmp_path / sub)])
        assert code == 0
    ja, jb = (json.loads((tmp_path / sub / name / "report.json").read_text())
              for sub in ("a", "b"))
    for doc in (ja, jb):
        doc.pop("wall_time_s")
        doc["artifacts"] = None
        # the barenblatt payload reports per-level walls
        for r in doc.get("barenblatt", {}).get("results", []):
            r.pop("wall_s")
        for c in doc["checks"]:
            if isinstance(c["detail"], dict):
                c["detail"].pop("walls", None)
    assert ja == jb
    # CSV artifacts byte-identical
    a_csv = sorted((tmp_path / "a" / name).glob("*.csv"))
    b_csv = sorted((tmp_path / "b" / name).glob("*.csv"))
    assert [p.read_bytes() for p in a_csv] == [p.read_bytes() for p in b_csv]


def test_reruns_are_byte_identical(tmp_path):
    _assert_reruns_identical(tmp_path / "scaling", "scaling-exactness",
                             ["--bundled", "scaling-exactness",
                              "--seed", "42"])
    # one coarse level over a short window: convergence.csv carries no timing
    doc = bundled_scenario("barenblatt-convergence")
    doc["operation"].update(levels=[0], t2=1.05, base_steps=5)
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(doc))
    _assert_reruns_identical(tmp_path / "ladder", "barenblatt-convergence",
                             ["--scenario", str(path)])
    assert (tmp_path / "ladder" / "a" / "barenblatt-convergence"
            / "convergence.csv").exists()
    # a short seeded campaign: the trial draws and verdicts repeat
    doc = bundled_scenario("comparison-campaign")
    doc["operation"]["trials"] = 6
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    _assert_reruns_identical(tmp_path / "campaign", "comparison-campaign",
                             ["--scenario", str(path), "--seed", "3"])


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("PMELAB_OUT", str(tmp_path / "envout"))
    assert main(["run", "--bundled", "constant-solve"]) == 0
    assert (tmp_path / "envout" / "constant-solve" / "report.json").exists()


def test_resolution_override(tmp_path):
    code = main(["run", "--bundled", "constant-solve",
                 "--out", str(tmp_path), "--resolution", "0.125"])
    assert code == 0
    rows = (tmp_path / "constant-solve" / "field.csv").read_text().splitlines()
    # 8x8 grid instead of 16x16: bottom level has 64 cells
    assert len([r for r in rows if r.startswith("0,")]) == 64


@pytest.mark.parametrize("value", ["0", "nan", "inf", "-0.125"])
def test_resolution_must_be_positive_and_finite(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bundled", "constant-solve", "--out", str(tmp_path),
              "--resolution", value])
    assert exc.value.code == 2
    assert "--resolution" in capsys.readouterr().err


def test_readme_flags_match_the_run_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("Flags:", 1)[1].split(". ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", sentence))
    run = build_parser()._subparsers._group_actions[0].choices["run"]
    options = {s for a in run._actions for s in a.option_strings
               if s.startswith("--") and s != "--help"}
    assert documented == options
