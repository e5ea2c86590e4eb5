"""src/topowalk holds only what the product or the benchmark reads.

Every top-level function and class of src/topowalk must be reached from
code other than the tests: from src/ outside its own definition, from
perfbench/ (the tracer names its layer functions as "module.name" strings),
from scripts/, or from the package's `__all__`.  Docstrings and comments do
not count.  The few names that only the tests read are listed, each with the
reason it stays.  A name is matched by its identifier alone, so a local
variable of the same name elsewhere counts as a reach: the check can miss
dead code, but never flags live code.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "topowalk"

TEST_ONLY = {
    "oracle_bands": "the matrix oracle that the tests hold the plan and the closed forms to",
    "group_velocity_closed": "a closed form of the paper; criterion 3 holds it to the oracle",
    "operator_search": "the search showing that the declared catalog rows have no operator",
}


def _docstrings(tree) -> set:
    """The ids of the docstring constants of a module, its classes and functions."""
    nodes = [tree] + [n for n in ast.walk(tree)
                      if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return {id(n.body[0].value) for n in nodes
            if n.body and isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant)}


def _references(tree, strings: bool):
    """(name, top-level definition it sits in, or None) of every identifier
    that the code of `tree` reads: names, attributes, imported names and, with
    `strings`, the last part of each dotted string constant."""
    skip = _docstrings(tree)
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.ClassDef, ast.FunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.ImportFrom):
                yield from ((alias.name, owner) for alias in node.names)
            elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in skip):
                yield node.value.rsplit(".", 1)[-1], owner


def _all(tree) -> set:
    """The names listed in the module's __all__."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


def test_every_top_level_definition_is_reached():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reached = set()  # (name, module it is read in, definition it is read in)
    for stem, tree in modules.items():
        reached |= {(name, stem, owner) for name, owner in _references(tree, strings=False)}
        reached |= {(name, stem, None) for name in _all(tree)}
    for path in sorted(ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("scripts/*.py")):
        reached |= {(name, path, None)
                    for name, _ in _references(ast.parse(path.read_text()), strings=True)}
    dead = []
    for stem, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                continue
            if not any(name == node.name and (where, owner) != (stem, node.name)
                       for name, where, owner in reached):
                dead.append(node.name)
    assert sorted(dead) == sorted(TEST_ONLY), "reached by the tests alone"


def test_only_the_gap_search_builds_a_dense_mesh():
    # one mesh route: every gap search and flat-band check reads the floored
    # mesh of `topology._closings`, so a second caller of `_mesh_bloch` is a
    # second grid rule
    readers = {(path.stem, owner) for path in sorted(SRC.glob("*.py"))
               for name, owner in _references(ast.parse(path.read_text()), strings=False)
               if name == "_mesh_bloch"}
    assert readers == {("topology", "_closings")}
