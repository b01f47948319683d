import time

import pytest

from pmelab import bundled, scenarios


@pytest.fixture(scope="session")
def bundled_run(tmp_path_factory):
    """``run(name) -> (report, out_dir)``: the unmodified bundled scenario
    ``name``, run once per session and shared by the tests that read it.
    ``run.wall_s[name]`` is that run's wall time in seconds."""
    runs, walls = {}, {}

    def run(name):
        if name not in runs:
            out = tmp_path_factory.mktemp("bundled") / name
            doc = bundled.bundled_scenario(name)
            started = time.perf_counter()
            runs[name] = scenarios.run_scenario(doc, out), out
            walls[name] = time.perf_counter() - started
        return runs[name]

    run.wall_s = walls
    return run
