"""Small dense complex linear algebra for two- and four-level unitaries.

Pauli matrices, rotation axes, a checked eigen-decomposition of unitaries,
and 2x2 Kronecker products.  Everything acts on the trailing
(..., n, n) axes, so momentum grids batch for free.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# tau_y: sigma_y acting on the flavor index of four-band protocols
TAU_Y = SIGMA_Y

UNITARITY_TOL = 1e-12
EIG_TOL = 1e-10
AXIS_TOL = 1e-12


def unit_axis(axis) -> np.ndarray:
    """Validate and return a rotation axis as a float 3-vector of unit norm."""
    a = np.asarray(axis, dtype=float)
    if a.shape != (3,):
        raise InvalidInputError(f"rotation axis must be a 3-vector, got shape {a.shape}")
    if abs(np.linalg.norm(a) - 1.0) > AXIS_TOL:
        raise InvalidInputError(f"rotation axis must be normalized, got |axis| = {np.linalg.norm(a)!r}")
    return a


def unitarity_defect(U) -> float:
    """max over the batch of ||U^dag U - I||_max; 0.0 for an empty batch."""
    U = np.asarray(U, dtype=complex)
    n = U.shape[-1]
    prod = np.swapaxes(U, -1, -2).conj() @ U
    return float(np.abs(prod - np.eye(n)).max(initial=0.0))


def require_unitary(U) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.shape[-1] != U.shape[-2]:
        raise InvalidInputError(f"eig_unitary input must be square, got shape {U.shape}")
    defect = unitarity_defect(U)
    if defect > UNITARITY_TOL:
        raise InvalidInputError(f"eig_unitary input is not unitary: ||U^dag U - I||_max ="
                                f" {defect:.3e} > {UNITARITY_TOL:.1e}")
    return U


def tensor(A, B) -> np.ndarray:
    """Kronecker product of 2x2 blocks: (A tensor B), batched over leading axes."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape[-2:] != (2, 2) or B.shape[-2:] != (2, 2):
        raise InvalidInputError(f"tensor expects 2x2 factors, got {A.shape} and {B.shape}")
    out = np.einsum("...ij,...kl->...ikjl", A, B)
    return out.reshape(*out.shape[:-4], 4, 4)


def block_diag2(A, B) -> np.ndarray:
    """[[A, 0], [0, B]] for batched 2x2 blocks."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    out = np.zeros(shape + (4, 4), dtype=complex)
    out[..., :2, :2] = A
    out[..., 2:, 2:] = B
    return out


# Mixing weights c of the Hermitian A + cB that eig_unitary diagonalises.
# Irrational, so two distinct eigenvalues exp(iθ1), exp(iθ2) of U collide in
# A + cB only on the measure-zero set θ1 + θ2 ≡ 2 atan(c) (mod 2π); the second
# weight moves that set by about π.
EIGH_MIX = (np.sqrt(2.0) - 1.0 / np.pi, 1.0 / np.pi - np.sqrt(2.0))


def _eigh_basis(U: np.ndarray, c: float):
    """(W, W^dag U W) from one batched eigh of A + cB."""
    Uh = np.swapaxes(U, -1, -2).conj()
    _, W = np.linalg.eigh(0.5 * (U + Uh) - 0.5j * c * (U - Uh))
    return W, np.swapaxes(W, -1, -2).conj() @ U @ W


def _off_diagonal(D: np.ndarray) -> np.ndarray:
    return np.abs(np.where(np.eye(D.shape[-1], dtype=bool), 0.0, D)).max(axis=(-2, -1))


def eig_unitary(U):
    """Eigen-decomposition of a (batched) unitary matrix.

    Returns (values, vectors): vectors[..., :, i] is a unit eigenvector of
    eigenvalue values[..., i] and the columns are orthonormal; their order and
    phases are whatever `eigh` gives.

    U is normal, so A = (U + U^dag)/2 and B = (U - U^dag)/2i commute, and one
    batched Hermitian `eigh` of A + cB gives an orthonormal W that
    diagonalises U, also at degenerate eigenvalues.  Every point is checked:
    the off-diagonal of W^dag U W must be <= EIG_TOL.  Points that fail are
    decomposed again with the second weight of EIGH_MIX; if any still fails,
    `np.linalg.LinAlgError` is raised with the count and the worst
    off-diagonal (deliberately not DegenerateGridError, which callers read as
    "no usable momenta").  No production path calls it: it is the tests'
    spectral reference for H = i log U, and perfbench/tracer.py spans it.
    """
    U = require_unitary(U)
    n = U.shape[-1]
    flat = U.reshape(-1, n, n)
    W, D = _eigh_basis(flat, EIGH_MIX[0])
    bad = np.flatnonzero(_off_diagonal(D) > EIG_TOL)
    if bad.size:
        W[bad], D[bad] = _eigh_basis(flat[bad], EIGH_MIX[1])
        off = _off_diagonal(D[bad])
        if (off > EIG_TOL).any():
            raise np.linalg.LinAlgError(
                f"eig_unitary: {int((off > EIG_TOL).sum())} of {flat.shape[0]} matrices"
                f" not diagonalised; worst off-diagonal {off.max():.3e} > {EIG_TOL:.0e}")
    lam = np.diagonal(D, axis1=-2, axis2=-1).copy()  # a writable array, not a view
    return lam.reshape(U.shape[:-2] + (n,)), W.reshape(U.shape)

