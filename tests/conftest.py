import numpy as np
import pytest
import scipy.linalg

from topowalk.protocols import Coin
from topowalk.su2 import SIGMA_X, SIGMA_Y, SIGMA_Z, TAU_Y, block_diag2, tensor


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


def _reference_base(spec, k, angles, T):
    """Product of coins exp(-i T theta/2 axis.sigma), by scipy's matrix
    exponential, and diagonal shift matrices, in application order."""
    batch = np.broadcast_shapes(k.shape[:-1], np.shape(T),
                                *(np.shape(v) for v in angles.values()))
    U = np.broadcast_to(np.eye(2, dtype=complex), batch + (2, 2))
    for el in spec.elements:
        if isinstance(el, Coin):
            gen = np.tensordot(el.axis, [SIGMA_X, SIGMA_Y, SIGMA_Z], axes=1)
            theta = np.multiply(T, angles[el.symbol])
            M = scipy.linalg.expm(-0.5j * np.asarray(theta)[..., None, None] * gen)
        else:
            M = np.zeros(k.shape[:-1] + (2, 2), dtype=complex)
            M[..., 0, 0] = np.exp(1j * (k @ np.array(el.up, dtype=float)))
            M[..., 1, 1] = np.exp(1j * (k @ np.array(el.down, dtype=float)))
        U = M @ U
    return U


def reference_unitary(spec, k, angles=None, T=None):
    """U(k) of `spec` at the (..., dim) momenta k from its elements alone, by
    matrix exponentials and matrix products: the reference that the compiled
    plan is held to.  `angles` are added to the spec's and `T` replaces its
    step number; either may be an array against the batch of k."""
    angles = {**spec.angles, **(angles or {})}
    T = spec.T if T is None else T
    Uk = _reference_base(spec, k, angles, T)
    if spec.doubled is None:
        return Uk
    Um = _reference_base(spec, -k, angles, T)
    if spec.doubled == "transpose_block":
        return block_diag2(Uk, np.swapaxes(Um, -1, -2))
    if spec.doubled == "conjugate_block":
        return block_diag2(Uk, Um.conj())
    assert spec.doubled == "trs_sandwich"
    eye = np.broadcast_to(np.eye(2, dtype=complex), Uk.shape)
    wall = (np.cos(np.pi / 4) * np.eye(4)
            - 1j * np.sin(np.pi / 4) * tensor(TAU_Y, SIGMA_Y))
    return block_diag2(Uk, eye) @ wall @ block_diag2(eye, np.swapaxes(Um, -1, -2))
