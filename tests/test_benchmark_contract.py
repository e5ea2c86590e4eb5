"""The names that the benchmark harness under perfbench/ reads from topowalk.

perfbench/tracer.py wraps layer functions by name, and perfbench/checks.py
and perfbench/child.py import names from topowalk.  A change to src/ that
removes one of them would break `perfbench/run.py` (with `--trace 1` for the
tracer's); these tests fail first.
"""
import ast
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import topowalk.cli  # noqa: F401  imports every module the tracer wraps

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layer(qualname: str):
    modname, fname = qualname.split(".")
    return sys.modules[f"topowalk.{modname}"], fname


def test_tracer_installs_and_uninstalls_over_topowalk():
    tracer_mod = _load("tracer")
    originals = {q: getattr(*_layer(q)) for q in tracer_mod.LAYER_FUNCTIONS}
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for qualname, fn in originals.items():
            assert getattr(*_layer(qualname)) is not fn, qualname
        topowalk.spectrum.rho_closed_form("1d-phs", {"alpha": 0.1, "beta": 0.2}, 1,
                                          np.zeros((1, 1)))
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["spectrum.rho_closed_form"]
    for qualname, fn in originals.items():
        assert getattr(*_layer(qualname)) is fn, qualname


@pytest.mark.parametrize("script", ["checks.py", "child.py"])
def test_every_topowalk_name_the_harness_reads_exists(script):
    tree = ast.parse((PERFBENCH / script).read_text())
    modules = {}  # local name -> a topowalk module imported under it
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "topowalk":
            source = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(source, alias.name), f"{node.module}.{alias.name}"
                value = getattr(source, alias.name)
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    assert modules
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            module = modules[node.value.id]
            assert hasattr(module, node.attr), f"{module.__name__}.{node.attr}"


def test_classify_counts_the_open_mesh_points():
    """classify evaluates U on the open 10^3 mesh; the tracer's point count of
    each (10, 10, 10, 4, 4) U is the 1000 momenta of the flattened grid."""
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        topowalk.symmetry.classify("3d-aii")
    finally:
        tracer.uninstall()
    builds = [span[5] for span in tracer.spans if span[0] == "protocols.build_unitary"]
    assert len(builds) == 2  # U(k) and U(-k)
    assert all(counts["points"] == 1000 for counts in builds)
