import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from topowalk import su2
from topowalk.errors import DegenerateGridError, InvalidInputError

def su2_rotation(axis, angle):
    """exp(-i angle/2 axis.sigma) by scipy's matrix exponential; `angle` may
    be an array, the result then has its shape + (2, 2)."""
    gen = np.tensordot(axis, [su2.SIGMA_X, su2.SIGMA_Y, su2.SIGMA_Z], axes=1)
    return scipy.linalg.expm(-0.5j * np.asarray(angle)[..., None, None] * gen)


class TestEigUnitary:
    def test_identity(self):
        vals, vecs = su2.eig_unitary(np.eye(2))
        npt.assert_allclose(vals, [1.0, 1.0])
        npt.assert_allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-12)

    def test_rotation_eigenvalues(self):
        U = su2_rotation((0, 1, 0), np.pi / 3)
        vals, vecs = su2.eig_unitary(U)
        npt.assert_allclose(np.sort(np.angle(vals)), [-np.pi / 6, np.pi / 6], atol=1e-12)
        npt.assert_allclose(U @ vecs, vecs * vals[None, :], atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(InvalidInputError):
            su2.eig_unitary(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_random_unitaries_orthonormal_and_unimodular(self, rng):
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            U = su2_rotation(axis, rng.uniform(-6, 6))
            vals, vecs = su2.eig_unitary(U)
            assert abs(abs(np.prod(vals)) - 1) <= 1e-12
            npt.assert_allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-10)
            npt.assert_allclose(np.abs(vals), 1.0, atol=1e-10)

    def test_degenerate_four_level_stays_orthonormal(self):
        # block-diagonal with equal blocks: doubly degenerate pair
        U2 = su2_rotation((0, 1, 0), 0.7)
        U = su2.block_diag2(U2, U2)
        vals, vecs = su2.eig_unitary(U)
        npt.assert_allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-10)
        npt.assert_allclose(U @ vecs, vecs * vals[..., None, :], atol=1e-10)

    @staticmethod
    def _random_su2(rng, size=()):
        axis = rng.normal(size=3)
        return su2_rotation(axis / np.linalg.norm(axis), rng.uniform(-6, 6, size=size))

    def _four_band_batch(self, rng):
        A, B, C, D, E, F, G, H, U2 = (self._random_su2(rng, size=8) for _ in range(9))
        return np.concatenate([su2.tensor(A, B) @ su2.block_diag2(C, D), su2.tensor(E, F),
                               su2.block_diag2(G, H), su2.block_diag2(U2, U2)])

    def _with_phases(self, rng, theta):
        """V diag(exp(i theta)) V^dag for a random four-band V."""
        V = su2.tensor(self._random_su2(rng), self._random_su2(rng)) @ su2.block_diag2(
            self._random_su2(rng), self._random_su2(rng))
        return V @ np.diag(np.exp(1j * np.asarray(theta))) @ V.conj().T

    def _assert_eigenbasis(self, U, vals, vecs, tol=1e-10):
        n = U.shape[-1]
        npt.assert_allclose(U @ vecs, vecs * vals[..., None, :], atol=tol)
        npt.assert_allclose(np.swapaxes(vecs, -1, -2).conj() @ vecs,
                            np.broadcast_to(np.eye(n), U.shape), atol=tol)

    def test_four_band_batch_matches_schur(self, rng):
        U = self._four_band_batch(rng)
        vals, vecs = su2.eig_unitary(U)
        for m in range(U.shape[0]):
            T, _ = scipy.linalg.schur(U[m], output="complex")
            npt.assert_allclose(np.sort(np.angle(vals[m])), np.sort(np.angle(np.diag(T))),
                                rtol=0, atol=1e-12)
        self._assert_eigenbasis(U, vals, vecs)

    def test_batch_invariance(self, rng):
        U = self._four_band_batch(rng).reshape(4, 8, 4, 4)
        vals, vecs = su2.eig_unitary(U)
        for idx in np.ndindex(U.shape[:2]):
            one_vals, one_vecs = su2.eig_unitary(U[idx])
            npt.assert_array_equal(one_vals, vals[idx])
            npt.assert_array_equal(one_vecs, vecs[idx])

    def test_retry_when_first_mix_is_degenerate(self, rng):
        # exp(i t1), exp(i t2) collide in A + cB where t1 + t2 = 2 atan(c)
        c1 = su2.EIGH_MIX[0]
        t1 = 0.4
        theta = [t1, 2 * np.arctan(c1) - t1, -0.9, -2.3]
        U = self._with_phases(rng, theta)
        Uh = U.conj().T
        _, W = np.linalg.eigh(0.5 * (U + Uh) - 0.5j * c1 * (U - Uh))
        D = W.conj().T @ U @ W
        assert np.abs(D - np.diag(np.diag(D))).max() > su2.EIG_TOL
        vals, vecs = su2.eig_unitary(U)
        npt.assert_allclose(np.sort(np.angle(vals)), sorted(theta), atol=1e-12)
        self._assert_eigenbasis(U, vals, vecs)

    def test_degenerate_under_both_mixes_raises(self, rng):
        c1, c2 = su2.EIGH_MIX
        theta = [0.4, 2 * np.arctan(c1) - 0.4, -0.9, 2 * np.arctan(c2) + 0.9]
        U = np.stack([np.eye(4), self._with_phases(rng, theta)])
        with pytest.raises(np.linalg.LinAlgError, match="1 of 2 matrices") as err:
            su2.eig_unitary(U)
        assert not isinstance(err.value, DegenerateGridError)

    def test_empty_batch(self):
        vals, vecs = su2.eig_unitary(np.zeros((0, 4, 4), dtype=complex))
        assert vals.shape == (0, 4) and vecs.shape == (0, 4, 4)


def test_unitarity_defect_of_empty_batch_is_zero():
    assert su2.unitarity_defect(np.zeros((0, 2, 2))) == 0.0
    assert su2.unitarity_defect(np.zeros((0, 4, 4))) <= su2.UNITARITY_TOL


class TestTensor:
    def test_identity(self):
        npt.assert_array_equal(su2.tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_times_identity(self):
        npt.assert_array_equal(su2.tensor(su2.SIGMA_Z, np.eye(2)),
                               np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))

    def test_sigma_x_squared_antidiagonal(self):
        out = su2.tensor(su2.SIGMA_X, su2.SIGMA_X)
        npt.assert_array_equal(out, np.fliplr(np.eye(4)).astype(complex))

    def test_mixed_product_rule(self, rng):
        for _ in range(20):
            mats = []
            for _ in range(4):
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                mats.append(su2_rotation(axis, rng.uniform(-6, 6)))
            A, B, C, D = mats
            lhs = su2.tensor(A, B) @ su2.tensor(C, D)
            rhs = su2.tensor(A @ C, B @ D)
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidInputError):
            su2.tensor(np.eye(3), np.eye(2))

