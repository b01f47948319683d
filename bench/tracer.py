"""Per-layer tracing installed from outside the package.

``Tracer`` replaces selected pmelab functions with timing wrappers and puts
the originals back on exit.  Nothing under ``src/`` is edited: a wrapper is
bound on every pmelab module that binds the original object, so a call made
through ``from .solver import solve_union`` in another module is counted too.

Each wrapper times its call as a span nested in the span that caused it,
and the tracer keeps, per layer name, the number of calls and the self time
(span time minus the time covered by child spans).  Counters that a layer
exposes in its return value (Newton iterations, samples checked) or through
a callback (CG iterations) are summed at the same boundary.  Single-threaded
use only.
"""

from __future__ import annotations

import functools
import sys
import time


def _newton_iters(field):
    return {"solver.newton.iters": sum(field.stats.get("newton_iterations",
                                                       ()))}


def _samples_checked(report):
    return {"barriers.samples_checked": report.samples_checked}


# (layer name, module, attribute path, counters from the return value).
# The attribute path names a function or a class method of the module.
TARGETS = [
    ("solver.solve_union", "solver", "solve_union", _newton_iters),
    ("solver.sample", "solver", "BoundaryData.sample", None),
    ("solver.assemble", "solver", "_step_matrices", None),
    ("solver.newton", "solver", "_newton_step", None),
    ("capacity.capacity", "capacity", "capacity", None),
    ("capacity.wiener_profile", "capacity", "wiener_profile", None),
    ("barriers.verify_sign", "barriers", "verify_sign", _samples_checked),
    ("barriers.region_samples", "barriers", "_region_samples", None),
    ("perron.regularity_probe", "perron", "regularity_probe", None),
    ("perron.dichotomy_check", "perron", "dichotomy_check", None),
    ("perron.discretization_estimate", "perron", "discretization_estimate",
     None),
    ("perron.min_over_ball", "perron", "_min_over_ball", None),
    ("geometry.parabolic_boundary", "geometry", "parabolic_boundary", None),
    ("scenarios.run_scenario", "scenarios", "run_scenario", None),
    ("scenarios.report", "scenarios", "RunReport.write_csv", None),
    ("scenarios.report", "scenarios", "RunReport.finalize", None),
]

# scipy's cg is bound separately in these modules; each binding is its own
# layer, so the small Newton systems and the capacity systems stay apart.
# The wrapper adds a callback that counts iterations and changes no numerics.
CG_MODULES = ("solver", "capacity")

LAYERS = list(dict.fromkeys(
    [t[0] for t in TARGETS[:4]] + [f"{m}.cg" for m in CG_MODULES]
    + [t[0] for t in TARGETS[4:]]))
COUNTERS = ["solver.newton.iters", "solver.cg.iters", "solver.cg.unknowns_max",
            "capacity.cg.iters", "barriers.samples_checked"]

PACKAGE = "pmelab"


class Tracer:
    """Context manager: install the wrappers, aggregate spans, uninstall."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.absent: list[str] = []
        self._stack: list[list] = []      # [name, child time] per open span
        self._undo: list[tuple] = []

    # -- accounting --------------------------------------------------------

    def _entry(self, name: str) -> dict:
        return self.stats.setdefault(
            name, {"calls": 0, "self_s": 0.0})

    def _wrap(self, name, fn, counter=None, before=None):
        entry = self._entry(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                kwargs = before(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += span
                entry["calls"] += 1
                entry["self_s"] += span - frame[1]
            if counter is not None:
                for key, val in counter(out).items():
                    self.counts[key] += val
            return out

        return traced

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = PACKAGE + "."
        return [mod for mod_name, mod in list(sys.modules.items())
                if mod is not None and (mod_name == PACKAGE
                                        or mod_name.startswith(prefix))]

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install_target(self, name, module_name, path, counter):
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = module
        if owner is not None and owner_name:
            owner = getattr(module, owner_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None or not callable(original):
            self.absent.append(f"{module_name}.{path}")
            self._entry(name)
            return
        wrapper = self._wrap(name, original, counter)
        if owner_name:                      # a method: wrap it on the class
            self._set(owner, attr, wrapper)
            return
        for mod in self._modules():         # every module binding the name
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, wrapper)

    def _install_cg(self, module_name):
        name = f"{module_name}.cg"
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        original = getattr(module, "cg", None)
        if original is None:
            self.absent.append(f"{module_name}.cg")
            self._entry(name)
            return

        counts = self.counts

        def add_callback(args, kwargs):
            b = args[1] if len(args) > 1 else kwargs["b"]
            size = f"{name}.unknowns_max"
            if size in counts:
                counts[size] = max(counts[size], len(b))
            inner = kwargs.get("callback")

            def count(xk):
                counts[f"{name}.iters"] += 1
                if inner is not None:
                    inner(xk)

            return kwargs | {"callback": count}

        self._set(module, "cg",
                  self._wrap(name, original, before=add_callback))

    def __enter__(self):
        for target in TARGETS:
            self._install_target(*target)
        for module_name in CG_MODULES:
            self._install_cg(module_name)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False
