import pytest

from pmelab import bundled, scenarios


@pytest.fixture(scope="session")
def bundled_run(tmp_path_factory):
    """``run(name) -> (report, out_dir)``: the unmodified bundled scenario
    ``name``, run once per session and shared by the tests that read it."""
    runs = {}

    def run(name):
        if name not in runs:
            out = tmp_path_factory.mktemp("bundled") / name
            doc = bundled.bundled_scenario(name)
            runs[name] = scenarios.run_scenario(doc, out), out
        return runs[name]

    return run
