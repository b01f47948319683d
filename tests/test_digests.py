"""The bundled outputs, pinned: the SHA-256 of every CSV and of
``report.json`` (timing keys and artifact paths left out) of the bundled
scenarios whose outputs do not depend on the BLAS thread count.

A change that moves numbers on purpose rewrites the digest file, with the
library versions it was made with, by running this module:

    PYTHONPATH=src python tests/test_digests.py
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

DIGEST_FILE = Path(__file__).with_name("bundled_digests.json")
PINNED = json.loads(DIGEST_FILE.read_text())

# Scenarios whose outputs were measured identical at 1 and 2 BLAS threads.
# The Barenblatt ladder and three Wiener scenarios are not: they take dots
# of more than 10,000 elements, which OpenBLAS splits across threads.
SCENARIOS = ["constant-solve", "scaling-exactness", "union-resolutivity",
             "bottom-regularity", "future-independence",
             "future-independence-stack", "degiorgi-barenblatt",
             "barrier-certification"]

# report keys that carry wall-clock times
TIMING_KEYS = frozenset({"wall_time_s", "wall_s", "walls"})


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items()
                if k not in TIMING_KEYS and k != "artifacts"}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def digests(out_dir: Path) -> dict:
    """File name -> SHA-256 of each output of one scenario run."""
    out = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = json.dumps(_strip(json.loads(data)),
                              sort_keys=True).encode()
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


@pytest.mark.parametrize("name", SCENARIOS)
def test_bundled_outputs_match_their_digests(bundled_run, name):
    if PINNED["versions"] != versions():
        pytest.skip(f"digests pinned under {PINNED['versions']}, "
                    f"running {versions()}")
    _, out_dir = bundled_run(name)
    assert digests(out_dir) == PINNED["digests"][name]


if __name__ == "__main__":
    from pmelab import bundled, scenarios

    pinned = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCENARIOS:
            out = Path(tmp) / name
            scenarios.run_scenario(bundled.bundled_scenario(name), out)
            pinned[name] = digests(out)
    DIGEST_FILE.write_text(json.dumps(
        {"versions": versions(), "digests": pinned}, indent=2) + "\n")
    print(f"wrote {DIGEST_FILE}", file=sys.stderr)
