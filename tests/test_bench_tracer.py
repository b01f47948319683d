"""The benchmark's tracer (bench/tracer.py) wraps pmelab functions by name
from outside the package; a renamed layer must fail here, in the main
suite, and not only in the benchmark's own self-test."""

import importlib.util
from pathlib import Path

import pmelab.barriers  # noqa: F401  (the tracer wraps loaded modules only)
import pmelab.capacity  # noqa: F401
import pmelab.geometry  # noqa: F401
import pmelab.perron  # noqa: F401
import pmelab.scenarios  # noqa: F401
import pmelab.solver  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_finds_every_traced_layer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.Tracer() as tr:
        assert tr.absent == []
    assert set(tr.stats) == set(tracer.LAYERS)
