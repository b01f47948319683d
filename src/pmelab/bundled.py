"""The shipped scenario corpus: one ready-to-run experiment per headline
property of the laboratory, kept as one scenario file per name in
``corpus/<name>.json``.  ``bundled_scenario(name)`` reads a file through
:func:`pmelab.scenarios.load_scenario`, the path user files take, so a
bundled document is read and validated like any other; ``list_bundled()``
enumerates names with one-line descriptions.
"""

from __future__ import annotations

from importlib.resources import files

from .scenarios import load_scenario


def _corpus() -> dict:
    """Corpus file per scenario name (the file stem)."""
    return {p.name.removesuffix(".json"): p
            for p in (files(__package__) / "corpus").iterdir()
            if p.name.endswith(".json")}


def list_bundled() -> list[tuple[str, str]]:
    """Names and one-line descriptions of the shipped corpus, by name."""
    return [(name, load_scenario(path)["description"])
            for name, path in sorted(_corpus().items())]


def bundled_scenario(name: str) -> dict:
    """A fresh copy of the bundled scenario ``name``."""
    corpus = _corpus()
    if name not in corpus:      # never join an unchecked name into a path
        known = ", ".join(sorted(corpus))
        raise KeyError(f"no bundled scenario {name!r}; known: {known}")
    return load_scenario(corpus[name])
