import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def generic_angles(spec, rng=None, values=(0.83, 0.41, 1.27, 0.59)):
    """Bind non-degenerate angles to every symbol the protocol uses."""
    if rng is not None:
        return {s: float(rng.uniform(-np.pi, np.pi)) for s in spec.symbols}
    table = dict(zip(("alpha", "beta", "gamma", "zeta"), values))
    return {s: table[s] for s in spec.symbols}


def as_stack(specs):
    """The angles and T of walks of one protocol as the keyword arrays of a
    stack of walks: topology.sweep_invariants(pid, n, **as_stack(specs))."""
    return {"angles": {s: np.array([w.angles[s] for w in specs]) for s in specs[0].angles},
            "T": np.array([w.T for w in specs])}
