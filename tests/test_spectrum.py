import re

import numpy as np
import numpy.testing as npt
import pytest

from conftest import generic_angles, reference_unitary
from topowalk import protocols as pr
from topowalk import spectrum as sp
from topowalk.errors import GaplessError, InvalidInputError, UnsupportedProtocolError


def central_difference(spec, k, axis, *, angles=None, T=None, h=1e-5):
    """The + band's velocity along `axis` by a central difference of `bloch`."""
    step = h * np.eye(spec.dimension)[axis]
    return (sp.bloch(spec, k + step, angles=angles, T=T).e_plus
            - sp.bloch(spec, k - step, angles=angles, T=T).e_plus) / (2 * h)


class TestBlochDecomposition:
    def test_identity_is_gapless_signal(self):
        b = sp.bands_from_unitary(np.eye(2))
        assert b.d0 == 1.0 and b.e_plus == 0.0
        npt.assert_array_equal(b.d, np.zeros(3))
        assert np.linalg.norm(b.d) <= sp.EPS_GAP

    def test_z_rotation(self):
        U = np.diag([np.exp(0.3j), np.exp(-0.3j)])
        b = sp.bands_from_unitary(U)
        npt.assert_allclose(b.d0, np.cos(0.3), atol=1e-15)
        npt.assert_allclose(b.d, [0.0, 0.0, -np.sin(0.3)], atol=1e-15)
        npt.assert_allclose(b.e_plus, 0.3, atol=1e-15)

    def test_frozen_example_1d_phs(self):
        spec = pr.registry_lookup("1d-phs", T=1,
                                  angles={"alpha": np.pi / 2, "beta": np.pi / 2})
        b = sp.bands_from_unitary(pr.build_unitary(spec, 0.0))
        npt.assert_allclose(b.e_plus, np.pi / 2, atol=1e-12)
        b = sp.bands_from_unitary(pr.build_unitary(spec, np.pi / 2))
        npt.assert_allclose(b.d, [-0.5, 0.5, 0.5], atol=1e-12)

    def test_global_phase_factoring(self, rng):
        spec = pr.registry_lookup("1d-split", T=2, angles={"alpha": 0.7, "beta": -0.2})
        U = pr.build_unitary(spec, 0.9)
        phase = 0.37
        b = sp.bands_from_unitary(np.exp(1j * phase) * U)
        b0 = sp.bands_from_unitary(U)
        npt.assert_allclose(b.phase, phase, atol=1e-12)
        npt.assert_allclose(b.d0, b0.d0, atol=1e-12)
        npt.assert_allclose(b.d, b0.d, atol=1e-12)

    @pytest.mark.parametrize("pid", sp.CLOSED_FORM_IDS)
    def test_normalization(self, pid, rng):
        spec = pr.registry_lookup(pid, T=4)
        spec = spec.with_params(**generic_angles(spec, rng))
        k = rng.uniform(-np.pi, np.pi, size=(300, spec.dimension))
        b = sp.bands_from_unitary(pr.build_unitary(spec, k))
        npt.assert_allclose(b.d0 ** 2 + (b.d ** 2).sum(-1), 1.0, atol=1e-10)
        assert ((b.e_plus >= 0) & (b.e_plus <= np.pi)).all()

    def test_energy_matches_eigenphases(self, rng):
        spec = pr.registry_lookup("2d-phs", T=3, angles={"alpha": 0.83, "beta": 0.41})
        k = rng.uniform(-np.pi, np.pi, size=(50, 2))
        U = pr.build_unitary(spec, k)
        b = sp.bands_from_unitary(U)
        E = np.sort(-np.angle(np.linalg.eigvals(U)), axis=-1)  # (-e_plus, +e_plus)
        npt.assert_allclose(E[:, 1], b.e_plus, atol=1e-10)
        npt.assert_allclose(E[:, 0], -b.e_plus, atol=1e-10)

    def test_rejects_non_2x2(self):
        with pytest.raises(InvalidInputError):
            sp.bloch_split(np.eye(4))

    @pytest.mark.parametrize("pid", [p for p in pr.PROTOCOL_IDS if pr.REGISTRY[p].bands == 2])
    def test_plan_route_matches_oracle(self, pid, rng):
        """`bloch` reads (d0, d) from the plan with no determinant phase;
        `bands_from_unitary` factors the phase out of the matrix-exponential
        reference U first."""
        spec = pr.registry_lookup(pid)
        n = 200
        cases = [(generic_angles(spec, rng), 1), (generic_angles(spec, rng), 6),
                 ({s: rng.uniform(-np.pi, np.pi, n) for s in spec.symbols},
                  rng.integers(1, 7, n))]
        for angles, T in cases:
            k = rng.uniform(-np.pi, np.pi, size=(n, spec.dimension))
            got = sp.bloch(spec, k, angles=angles, T=T)
            want = sp.bands_from_unitary(reference_unitary(spec, k, angles, T))
            assert got.d.shape == want.d.shape == (n, 3)
            npt.assert_allclose(got.d0, want.d0, rtol=0, atol=1e-14)
            npt.assert_allclose(got.d, want.d, rtol=0, atol=1e-14)
            # arccos has slope 1/|d|: away from touchings it turns the 1e-14
            # of U into at most 1e-11
            away = np.linalg.norm(want.d, axis=-1) >= 1e-3
            npt.assert_allclose(got.e_plus[away], want.e_plus[away], rtol=0, atol=1e-11)
            assert np.all(got.phase == 0.0)

    def test_plan_route_two_band_only(self):
        with pytest.raises(UnsupportedProtocolError):
            sp.bloch("2d-aii", np.zeros((1, 2)))


class TestClosedForms:
    @pytest.mark.parametrize("pid", sp.CLOSED_FORM_IDS)
    def test_rho_and_d_match_oracle(self, pid, rng):
        spec = pr.registry_lookup(pid)
        n = 800
        angles = {s: rng.uniform(-np.pi, np.pi, n) for s in spec.symbols}
        T = rng.integers(1, 13, n).astype(float)
        k = rng.uniform(-np.pi, np.pi, (n, spec.dimension))
        b = sp.bands_from_unitary(pr.build_unitary(spec, k, angles=angles, T=T))
        rho = sp.rho_closed_form(pid, angles, T, k)
        assert np.abs(rho - np.cos(b.e_plus)).max() <= 1e-10
        assert np.abs(rho).max() <= 1 + 1e-10
        d = sp.d_closed_form(pid, angles, T, k)
        assert np.abs(b.d - d).max() <= 1e-9 < np.abs(b.d + d).max()  # the sign +1

    def test_frozen_2d_phs_value(self):
        rho = sp.rho_closed_form("2d-phs", {"alpha": np.pi / 3, "beta": np.pi / 4}, 2,
                                 np.array([0.5, -0.9]))
        npt.assert_allclose(rho, -0.4359932621847157, atol=1e-12)

    def test_3d_simple_flat_band_case(self):
        # T*beta = pi makes cos(T beta/2) vanish: rho == 0, bands at +-pi/2
        k = np.random.default_rng(0).uniform(-np.pi, np.pi, (40, 3))
        rho = sp.rho_closed_form("3d-simple", {"beta": np.pi / 3}, 3, k)
        npt.assert_allclose(rho, 0.0, atol=1e-12)

    def test_1d_chs_zero_angles_linear_bands(self):
        k = np.linspace(-np.pi, np.pi, 101)[:, None]
        rho = sp.rho_closed_form("1d-chs", {"alpha": 0.0, "beta": 0.0}, 1, k)
        npt.assert_allclose(rho, np.cos(k[:, 0]), atol=1e-14)

    def test_1d_chs_dx_vanishes_at_zero_momentum(self, rng):
        angles = {"alpha": rng.uniform(-np.pi, np.pi, 20),
                  "beta": rng.uniform(-np.pi, np.pi, 20)}
        d = sp.d_closed_form("1d-chs", angles, 5, np.zeros((20, 1)))
        npt.assert_allclose(d[:, 0], 0.0, atol=1e-14)

    def test_unsupported_protocols_raise(self):
        with pytest.raises(UnsupportedProtocolError):
            sp.rho_closed_form("1d-diii", {"alpha": 0.1, "beta": 0.2}, 2, np.zeros((1, 1)))
        with pytest.raises(UnsupportedProtocolError):
            sp.rho_closed_form("2d-simple", {"beta": 0.2}, 2, np.zeros((1, 2)))

    def test_unhashable_protocol_id_is_unsupported(self):
        with pytest.raises(UnsupportedProtocolError, match="no analytic form"):
            sp.rho_closed_form(["1d-phs"], {"alpha": 0.1, "beta": 0.2}, 2, np.zeros((1, 1)))


class TestGroupVelocity:
    @pytest.mark.parametrize("pid", sp.CLOSED_FORM_IDS)
    def test_analytic_matches_finite_difference(self, pid, rng):
        spec = pr.registry_lookup(pid, T=3)
        spec = spec.with_params(**generic_angles(spec, rng))
        picks = []
        while len(picks) < 40:
            k = rng.uniform(-np.pi, np.pi, size=(200, spec.dimension))
            b = sp.bands_from_unitary(pr.build_unitary(spec, k))
            good = np.linalg.norm(b.d, axis=-1) >= 0.3
            picks.extend(k[good][: 40 - len(picks)])
        k = np.asarray(picks)
        for ax in range(spec.dimension):
            vc = sp.group_velocity_closed(spec.id, spec.angles, spec.T, k, ax)
            vn = central_difference(spec, k, ax)
            assert np.abs(vc - vn).max() <= 1e-6

    @pytest.mark.parametrize("pid", [p for p in pr.PROTOCOL_IDS if pr.REGISTRY[p].bands == 2])
    def test_plan_velocity_matches_references(self, pid, rng):
        """The one-pass velocity against the closed form (to 1e-12) where one
        exists, else the central finite difference (to 1e-8), at scalar and
        per-point array angles and step numbers."""
        spec = pr.registry_lookup(pid)
        n = 200
        cases = [(generic_angles(spec, rng), 1), (generic_angles(spec, rng), 5),
                 ({s: rng.uniform(-np.pi, np.pi, n) for s in spec.symbols},
                  rng.integers(1, 7, n))]
        for angles, T in cases:
            k = rng.uniform(-np.pi, np.pi, size=(n, spec.dimension))
            e_plus, norm, v = sp.bands_with_velocity(spec, k, angles=angles, T=T)
            want = sp.bands_from_unitary(reference_unitary(spec, k, angles, T))
            npt.assert_allclose(norm, np.linalg.norm(want.d, axis=-1), rtol=0, atol=1e-14)
            away = norm >= 0.3
            npt.assert_allclose(e_plus[away], want.e_plus[away], rtol=0, atol=1e-13)
            for ax in range(spec.dimension):
                if pid in sp.CLOSED_FORM_IDS:
                    ref, tol = sp.group_velocity_closed(pid, angles, T, k, ax), 1e-12
                else:
                    ref, tol = central_difference(spec, k, ax, angles=angles, T=T), 1e-8
                assert np.abs(v[away, ax] - ref[away]).max() <= tol

    def test_plan_velocity_nan_at_closing_and_two_band_only(self):
        _, norm, v = sp.bands_with_velocity("1d-chs", np.array([[0.0], [0.4]]),
                                            angles={"alpha": 0.0, "beta": 0.0}, T=1)
        assert norm[0] == 0.0 and np.isnan(v[0, 0])
        npt.assert_allclose(v[1, 0], 1.0, atol=1e-14)
        with pytest.raises(UnsupportedProtocolError):
            sp.bands_with_velocity("1d-diii", np.zeros((1, 1)))

    def test_flat_band_velocity_zero(self):
        v = central_difference(pr.REGISTRY["3d-simple"], np.array([[0.3, -1.0, 0.4]]), 0,
                               angles={"beta": np.pi}, T=1)
        npt.assert_allclose(v, 0.0, atol=1e-8)

    def test_linear_band_unit_velocity(self):
        v = central_difference(pr.REGISTRY["1d-chs"], np.array([[0.4]]), 0,
                               angles={"alpha": 0.0, "beta": 0.0}, T=1)
        npt.assert_allclose(v, 1.0, atol=1e-8)

    def test_1d_chs_velocity_is_minus_nz_and_bounded(self, rng):
        angles = {"alpha": 0.83, "beta": 0.41}
        k = rng.uniform(-np.pi, np.pi, size=(400, 1))
        v = sp.group_velocity_closed("1d-chs", angles, 6, k, 0)
        d = sp.d_closed_form("1d-chs", angles, 6, k)
        nz = d[:, 2] / np.sqrt(1 - sp.rho_closed_form("1d-chs", angles, 6, k) ** 2)
        npt.assert_allclose(v, -nz, atol=1e-12)
        assert np.abs(v).max() <= 1 + 1e-9

    def test_closed_velocity_raises_at_closing(self):
        with pytest.raises(GaplessError):
            sp.group_velocity_closed("1d-chs", {"alpha": 0.0, "beta": 0.0}, 1,
                                     np.zeros((1, 1)), 0)

    def test_rejects_bad_axis(self):
        with pytest.raises(InvalidInputError):
            sp.drho_closed_form("2d-phs", {"alpha": 0.3, "beta": 0.1}, 1, np.zeros((1, 2)), "z")
        with pytest.raises(InvalidInputError):
            sp.group_velocity_closed("1d-phs", {"alpha": 0.3, "beta": 0.1}, 1,
                                     np.full((1, 1), 0.5), "y")
        # an axis is an integer index: a letter, bool or float one is rejected
        # also where its value would name an axis of the walk
        for axis in ("x", True, 1.0, -1, 2):
            with pytest.raises(InvalidInputError, match=re.escape(
                    f"axis must be an integer >= 0 and < 2, got {axis!r}")):
                sp.drho_closed_form("2d-phs", {"alpha": 0.3, "beta": 0.1}, 1,
                                    np.zeros((1, 2)), axis)

    def test_rejects_unhashable_axis(self):
        with pytest.raises(InvalidInputError, match=r"axis must be an integer >= 0 and < 1, got \[0\]"):
            sp.drho_closed_form("1d-phs", {"alpha": 0.3, "beta": 0.1}, 1, np.zeros((1, 1)), [0])


@pytest.mark.parametrize("pid,expect_symmetric", [
    ("1d-phs", True),    # even dispersion despite absent time reversal
    ("2d-phs", True),
    ("3d-split", True),
    ("1d-chs", False),   # odd sin(k) term in the dispersion
    ("2d-nosym", False),
    ("3d-nosym", False),
])
def test_energy_parity_in_momentum(pid, expect_symmetric, rng):
    spec = pr.registry_lookup(pid, T=3)
    spec = spec.with_params(**generic_angles(spec, rng))
    k = rng.uniform(-np.pi, np.pi, size=(200, spec.dimension))
    ep = sp.bands_from_unitary(pr.build_unitary(spec, k)).e_plus
    em = sp.bands_from_unitary(pr.build_unitary(spec, -k)).e_plus
    if expect_symmetric:
        assert np.abs(ep - em).max() <= 1e-10
    else:
        assert np.abs(ep - em).max() > 1e-3
