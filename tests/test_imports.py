"""What a run loads: scipy modules that a comparison campaign and a barrier
sign certificate never use, and jsonschema with the packages it pulls in,
stay out of the process, a sign certificate on its own loads no sparse or
dense linear algebra, the capacity module builds no sparse stencil, and
the face walk lives only in geometry."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# scipy.fft (with scipy.special, which it loads) serves only the capacity
# preconditioner, scipy.ndimage only connectivity labelling, and
# scipy.sparse.linalg nothing.
UNUSED = ("scipy.fft", "scipy.special", "scipy.ndimage", "scipy.sparse.linalg")
# scenarios checks its own schema; jsonschema is a test-only reference
VALIDATOR = ("jsonschema", "referencing", "rpds", "attrs", "attr",
             "jsonschema_specifications", "jsonpointer", "rfc3339_validator",
             "idna", "six", "typing_extensions")

CHILD = """
import json, sys, tempfile
from pmelab import barriers, bundled, scenarios

doc = bundled.bundled_scenario("comparison-campaign")
doc["operation"]["trials"] = 1
with tempfile.TemporaryDirectory() as out:
    report = scenarios.run_scenario(doc, out)
spec = barriers.BarrierSpec(kind="quadratic_sub", c=1.0, j=1, m=2.0, n=2,
                            diam=1.0)
sign = barriers.verify_sign(spec, scenarios.build_domain(doc),
                            barriers.SamplingPolicy(max_samples=500))
print(json.dumps({"passed": report["all_pass"], "certified": sign.certified,
                  "loaded": sorted(m for m in %r if m in sys.modules)}))
""" % (UNUSED + VALIDATOR,)


def test_campaign_and_sign_certificate_load_no_fft_ndimage_or_linalg():
    env = os.environ | {"PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["passed"] and got["certified"]
    assert got["loaded"] == []


# barriers and geometry need no linear algebra: a sign certificate run on
# its own must not load it
SIGN_CHILD = """
import json, sys
import numpy as np
from pmelab import barriers
from pmelab.geometry import Cylinder, Grid, SpaceTimeDomain, SpatialDomain

grid = Grid(n=2, h=1 / 16, origin=(-0.5, -0.5), extents=(16, 16))
base = SpatialDomain(grid, np.ones((16, 16), dtype=bool))
region = SpaceTimeDomain([Cylinder(base, 0.0, 0.5)], dt=1 / 16)
spec = barriers.BarrierSpec(kind="quadratic_sub", c=1.0, j=1, m=2.0, n=2,
                            diam=2.0)
sign = barriers.verify_sign(spec, region,
                            barriers.SamplingPolicy(max_samples=500))
print(json.dumps({"certified": sign.certified,
                  "loaded": sorted(m for m in sys.modules
                                   if m.startswith(("scipy.sparse",
                                                    "scipy.linalg")))}))
"""


def test_sign_certificate_loads_no_sparse_or_dense_linear_algebra():
    env = os.environ | {"PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", SIGN_CHILD], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120)
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["certified"]
    assert got["loaded"] == []


def test_capacity_assembles_no_sparse_stencil():
    # capacity and torsion systems act on their sine-transform box, and
    # the solver's slabs on their cores' bounding boxes; neither builds a
    # sparse stencil of the grid
    tree = ast.parse((SRC / "pmelab" / "capacity.py").read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            modules |= {f"{module}.{alias.name}" for alias in node.names}
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert [m for m in modules if m.startswith("scipy.sparse")] == []
    assert names & {"face_stencil", "pinned_sum"} == set()


# geometry's face walk and the neighbour operations built on it
FACE_WALK = {"faces", "_faces", "dilate", "neighbour_sum", "_neighbour_sum",
             "pinned_sum"}


def test_solver_and_capacity_define_no_face_walk_of_their_own():
    for module in ("solver.py", "capacity.py"):
        tree = ast.parse((SRC / "pmelab" / module).read_text())
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Store):
                defined.add(node.id)
        assert defined & FACE_WALK == set(), module
