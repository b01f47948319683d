"""The private names that the docs point to exist."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pmelab

ROOT = Path(__file__).resolve().parents[1]
PRIVATE = re.compile(r"(?<!\w)_\w+")


def _known_names() -> set[str]:
    """Module-level names of every pmelab module and the attributes of the
    classes they define."""
    names = set()
    for info in pkgutil.iter_modules(pmelab.__path__):
        module = importlib.import_module(f"pmelab.{info.name}")
        names |= set(vars(module))
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                names |= set(dir(obj))
    return names


def _docstrings(path: Path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node)
            if doc:
                yield doc


def _private_names(spans):
    return {name for span in spans for name in PRIVATE.findall(span)}


def test_private_names_in_docs_resolve():
    spans = [span for path in sorted((ROOT / "src" / "pmelab").glob("*.py"))
             for doc in _docstrings(path)
             for span in re.findall(r"``(.+?)``", doc, re.S)]
    readme = (ROOT / "README.md").read_text()
    spans += re.findall(r"(?<!`)`([^`\n]+)`(?!`)", readme)
    cited = _private_names(spans)
    assert cited
    assert sorted(cited - _known_names()) == []
