from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from conftest import generic_angles
from topowalk import protocols as pr
from topowalk import su2
from topowalk import symmetry as sym
from topowalk.errors import ClassificationError
from topowalk.spectrum import bands_from_unitary


def _bound(pid, rng=None, T=3):
    spec = pr.registry_lookup(pid, T=T)
    return spec.with_params(**generic_angles(spec, rng))


class TestCheckRelation:
    def test_phs_via_complex_conjugation_for_real_walk(self):
        spec = _bound("1d-phs")
        op = sym.SymmetryOperator(np.eye(2, dtype=complex), antiunitary=True,
                                  momentum_flip=True, label="K")
        grid = sym.bz_grid(1, 129)
        assert sym.check_relation(spec, op, "phs", grid) <= 1e-9

    def test_chiral_axis_relation_for_1d_chs(self):
        spec = _bound("1d-chs")
        G = sym.axis_sigma(sym.chiral_axis(spec))
        op = sym.SymmetryOperator(G, antiunitary=False, momentum_flip=False, label="A.sigma")
        grid = sym.bz_grid(1, 129)
        assert sym.check_relation(spec, op, "chs", grid) <= 1e-9
        assert op.square() == 1

    def test_identity_violates_chirality_maximally(self):
        spec = _bound("1d-phs")
        op = sym.SymmetryOperator(np.eye(2, dtype=complex), antiunitary=False,
                                  momentum_flip=False, label="1")
        grid = sym.bz_grid(1, 65)
        H, ok = sym.hamiltonian_grid(spec, grid)
        expected = 2 * np.abs(H[ok]).max(axis=(-2, -1)).max()
        resid = sym.check_relation(spec, op, "chs", grid)
        npt.assert_allclose(resid, expected, atol=1e-12)
        assert resid > 0.5

    def test_literal_no_flip_variant_is_reported_worse_for_phs(self):
        # the conjugation operator satisfies the relation at reversed momentum;
        # without the flip the residual is macroscopic
        spec = _bound("1d-phs")
        grid = sym.bz_grid(1, 65)
        op_flip = sym.SymmetryOperator(np.eye(2, dtype=complex), True, True, "K")
        op_lit = sym.SymmetryOperator(np.eye(2, dtype=complex), True, False, "K")
        assert sym.check_relation(spec, op_flip, "phs", grid) <= 1e-9
        assert sym.check_relation(spec, op_lit, "phs", grid) > 1e-2


class TestOperatorSearch:
    def test_1d_diii_phs_found_with_positive_square(self):
        hits = sym.operator_search(_bound("1d-diii"), "phs", n_per_axis=33)
        assert hits, "particle-hole candidates expected"
        assert any(op.square() == 1 for op, _ in hits)

    def test_1d_cii_phs_found_with_negative_square(self):
        hits = sym.operator_search(_bound("1d-cii"), "phs", n_per_axis=33)
        assert any(op.square() == -1 for op, _ in hits)

    def test_2d_nosym_all_searches_empty(self):
        spec = _bound("2d-nosym")
        for rel in ("phs", "trs", "chs"):
            assert sym.operator_search(spec, rel, n_per_axis=12) == []

    def test_1d_phs_no_chiral_or_time_reversal(self):
        spec = _bound("1d-phs")
        assert sym.operator_search(spec, "chs", n_per_axis=33) == []
        assert sym.operator_search(spec, "trs", n_per_axis=33) == []

    def test_square_is_grid_independent(self):
        spec = _bound("1d-diii")
        for n in (17, 33):
            hits = sym.operator_search(spec, "trs", n_per_axis=n)
            squares = sorted({op.square() for op, _ in hits})
            assert squares == [-1, 1]  # flavor swap with either square; -1 designated


class TestCompositionAndGeometry:
    @pytest.mark.parametrize("pid", ["1d-simple", "1d-split", "2d-simple", "3d-simple",
                                     "1d-diii", "1d-cii", "2d-diii", "3d-diii"])
    def test_composed_gamma_p_verifies_trs(self, pid, rng):
        spec = _bound(pid, rng)
        ops = sym.designated_operators(spec)
        if not {"phs", "chs"} <= set(ops):
            pytest.skip("row lacks a verified operator pair")
        P, G = ops["phs"], ops["chs"]
        # Gamma is unitary and P = M_P K, so (Gamma o P) = (Gamma M_P) K;
        # the momentum flips compose by XOR
        M = np.asarray(G.matrix) @ np.asarray(P.matrix)
        composed = sym.SymmetryOperator(M, antiunitary=True,
                                        momentum_flip=G.momentum_flip ^ P.momentum_flip,
                                        label="G o P")
        grid = sym.bz_grid(spec.dimension, {1: 65, 2: 16, 3: 8}[spec.dimension])
        assert sym.check_relation(spec, composed, "trs", grid) <= 1e-8

    def test_chiral_axis_perpendicular_to_bloch_vector(self, rng):
        spec = _bound("1d-chs", rng)
        A = sym.chiral_axis(spec)
        k = np.linspace(-np.pi, np.pi, 257)[:, None]
        b = bands_from_unitary(pr.build_unitary(spec, k))
        keep = np.linalg.norm(b.d, axis=-1) > 1e-6
        n = b.d[keep] / np.linalg.norm(b.d[keep], axis=-1, keepdims=True)
        assert np.abs(n @ A).max() <= 1e-9

    def test_chiral_axis_analytic_vs_fit(self):
        spec = _bound("1d-chs")
        A = sym.chiral_axis(spec)
        fitted, ratio = sym.chiral_axis_fit(spec)
        assert ratio <= 1e-12
        assert min(np.abs(fitted - A).max(), np.abs(fitted + A).max()) <= 1e-9


class TestDeclaredRows:
    """The catalog lists BDI for 2d/3d-split and AIII for 3d-chs, but the
    literal element orderings put the Bloch vector on a genuinely
    three-dimensional cloud: no constant-matrix chiral (or, for the split
    walks, time-reversal) operator can exist.  These tests pin the evidence."""

    @pytest.mark.parametrize("pid", ["2d-split", "3d-split", "3d-chs"])
    def test_bloch_cloud_spans_three_axes(self, pid, rng):
        spec = _bound(pid, rng)
        _, ratio = sym.chiral_axis_fit(spec)
        assert ratio > 0.05  # orders of magnitude away from planar

    @pytest.mark.parametrize("pid", ["2d-split", "3d-split"])
    def test_no_mirror_time_reversal_possible(self, pid, rng):
        # an antiunitary TRS needs the odd-in-k part of d parallel to a fixed
        # axis (mirror case) or the even part to vanish (point-reflection case)
        spec = _bound(pid, rng)
        k = rng.uniform(-np.pi, np.pi, size=(500, spec.dimension))
        d_p = bands_from_unitary(pr.build_unitary(spec, k)).d
        d_m = bands_from_unitary(pr.build_unitary(spec, -k)).d
        odd = 0.5 * (d_p - d_m)
        even = 0.5 * (d_p + d_m)
        s_odd = np.linalg.svd(odd, compute_uv=False)
        assert s_odd[1] / s_odd[0] > 0.05  # odd cloud is at least 2D
        assert np.abs(even).max() > 0.1  # even part does not vanish

    def test_search_confirms_absence_for_2d_split(self):
        spec = _bound("2d-split")
        assert sym.operator_search(spec, "chs", n_per_axis=12) == []
        assert sym.operator_search(spec, "trs", n_per_axis=12) == []


BLOCK_WALKS = ["1d-diii", "1d-cii", "2d-diii", "2d-c", "3d-diii", "3d-cii", "3d-c"]


class TestBlockHamiltonian:
    """The block-diagonal four-band walks read H from two Bloch splits of their
    base walk; the spectral reconstruction of the assembled U is the reference."""

    @pytest.mark.parametrize("pid", BLOCK_WALKS)
    def test_matches_eigensolver_reconstruction(self, pid, rng):
        for spec in (_bound(pid), _bound(pid, rng)):
            k = sym.bz_grid(spec.dimension, sym.CLASSIFY_GRID[spec.dimension])
            H, ok = sym.hamiltonian_grid(spec, k)
            lam, vec = su2.eig_unitary(pr.build_unitary(spec, k))
            E = -np.angle(lam)
            H_ref = np.einsum("...ai,...i,...bi->...ab", vec, E, vec.conj())
            ok_ref = (np.minimum(np.abs(E), np.pi - np.abs(E)) > sym._BRANCH_MARGIN).all(axis=-1)
            npt.assert_array_equal(ok, ok_ref)
            assert ok.any()
            assert np.abs(H - H_ref)[ok].max() <= 1e-10

    def test_classify_all_reads_two_grids_per_protocol(self, monkeypatch):
        grids, eigs, current = Counter(), Counter(), []
        real_grid, real_eig = sym.hamiltonian_grid, sym.eig_unitary

        def counting_grid(spec, k):
            grids[spec.id] += 1
            current[:] = [spec.id]
            return real_grid(spec, k)

        def counting_eig(U):
            eigs[current[0]] += 1
            return real_eig(U)

        monkeypatch.setattr(sym, "hamiltonian_grid", counting_grid)
        monkeypatch.setattr(sym, "eig_unitary", counting_eig)
        sym.classify_all()
        assert max(grids.values()) <= 2
        assert eigs == {"2d-aii": 2, "3d-aii": 2}


class TestClassify:
    def test_classify_1d_phs_row(self):
        r = sym.classify("1d-phs")
        assert (r.phs, r.trs, r.chs) == (1, 0, 0)
        assert r.az_family == "D" and r.invariant_group == "Z2"
        assert r.operator_verified == {"phs": True}

    def test_classify_3d_chs_row(self):
        r = sym.classify("3d-chs")
        assert (r.phs, r.trs, r.chs) == (0, 0, 1)
        assert r.az_family == "AIII" and r.invariant_group == "Z"
        assert r.operator_verified == {"chs": False}
        assert r.evidence_ratio > 0.05

    def test_classify_3d_aii_row(self):
        r = sym.classify("3d-aii")
        assert (r.phs, r.trs, r.chs) == (0, -1, 0)
        assert r.az_family == "AII" and r.invariant_group == "Z2"
        assert r.operator_verified == {"trs": True}

    def test_all_rows_match_catalog(self):
        rows = {row["protocol"]: row for row in sym.catalog_rows()}
        assert len(rows) == 22
        for report in sym.classify_all():
            assert report.canonical() == rows[report.protocol]
            for rel, ok in report.operator_verified.items():
                if ok:
                    assert report.residuals[rel] <= sym.RESIDUAL_TOL

    def test_verified_rows_have_machine_precision_residuals(self):
        r = sym.classify("1d-cii")
        assert all(r.operator_verified.values())
        assert max(r.residuals.values()) <= 1e-12

    def test_inconsistent_designation_raises(self, monkeypatch):
        # sabotage: pretend the 2d-c particle-hole operator is the identity
        def bad_ops(spec):
            return {"phs": sym.SymmetryOperator(np.eye(4, dtype=complex), True, True, "K")}
        monkeypatch.setattr(sym, "designated_operators", bad_ops)
        with pytest.raises(ClassificationError):
            sym.classify("2d-c")


def test_momentum_axes_are_the_bz_grid_axes():
    axes = sym.momentum_axes(2, 8)
    npt.assert_array_equal(axes[0], np.linspace(-np.pi, np.pi, 8, endpoint=False))
    grid = sym.bz_grid(2, 8)
    npt.assert_array_equal(grid[:, 0], np.repeat(axes[0], 8))
    npt.assert_array_equal(grid[:, 1], np.tile(axes[1], 8))
    short = sym.momentum_axes(2, 4, [np.pi, 2 * np.pi])
    npt.assert_array_equal(short[0], -np.pi + np.pi / 4 * np.arange(4))
    npt.assert_array_equal(short[1], axes[1][::2])
