"""The docs name only code that exists.

README.md and every docstring and comment of src/topowalk are read for
names in backticks.  A dotted name whose first part is a topowalk module
(`config.MAX_POINTS`, `spectrum.bloch`) must resolve by getattr from that
module, and a private name (`_closings`) must be defined somewhere in
src/topowalk.  A call's argument list is dropped first: `_scan(vals, cells)`
names `_scan`.  ROADMAP.md and CHANGES.md are not read: they name deleted
code as history.
"""
import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "topowalk"
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
NAME = re.compile(r"`(?:topowalk\.)?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^`]*\))?`")


def _texts(source: str):
    """The docstrings and the comments of a module's `source`."""
    tree = ast.parse(source)
    for node in [tree] + list(ast.walk(tree)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.string


def _defined(source: str) -> set:
    """The names that a module's `source` defines or assigns anywhere."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _resolves(dotted: str) -> bool:
    first, *rest = dotted.split(".")
    obj = importlib.import_module(f"topowalk.{first}")
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_backticked_names_exist():
    sources = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    defined = set().union(*map(_defined, sources.values()))
    readme = ROOT / "README.md"
    texts = [(readme, re.sub(r"```.*?```", "", readme.read_text(), flags=re.S))]
    texts += [(path, text) for path, source in sources.items() for text in _texts(source)]
    missing = set()
    for path, text in texts:
        for name in NAME.findall(text):
            first = name.split(".")[0]
            if first in MODULES and "." in name and not _resolves(name):
                missing.add((path.name, name))
            elif first.startswith("_") and first not in defined:
                missing.add((path.name, name))
    assert not missing, sorted(missing)
