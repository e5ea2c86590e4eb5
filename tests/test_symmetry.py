import sys
from collections import Counter
from itertools import product

import numpy as np
import numpy.testing as npt
import pytest

from conftest import as_stack, generic_angles
from topowalk import cli
from topowalk import protocols as pr
from topowalk import su2
from topowalk import symmetry as sym
from topowalk.errors import ClassificationError, DegenerateGridError, InvalidInputError
from topowalk.spectrum import bands_from_unitary, bloch


def _bound(pid, rng=None, T=3):
    spec = pr.registry_lookup(pid, T=T)
    return spec.with_params(**generic_angles(spec, rng))


class TestCheckRelation:
    def test_phs_via_complex_conjugation_for_real_walk(self):
        spec = _bound("1d-phs")
        op = sym.SymmetryOperator(np.eye(2, dtype=complex), label="K")
        grid = sym.bz_grid(1, 129)
        assert sym.check_relation(spec, op, "phs", grid) <= 1e-9

    def test_chiral_axis_relation_for_1d_chs(self):
        spec = _bound("1d-chs")
        G = sym.axis_sigma(sym.chiral_axis(spec))
        op = sym.SymmetryOperator(G, label="A.sigma")
        grid = sym.bz_grid(1, 129)
        assert sym.check_relation(spec, op, "chs", grid) <= 1e-9
        assert op.square("chs") == 1

    def test_identity_violates_chirality_maximally(self):
        spec = _bound("1d-phs")
        op = sym.SymmetryOperator(np.eye(2, dtype=complex), label="1")
        grid = sym.bz_grid(1, 65)
        # U - U^dag = -2i d.sigma, whose largest entry is max(|d_z|, |d_x - i d_y|)
        d = bands_from_unitary(pr.build_unitary(spec, grid)).d
        expected = 2 * np.maximum(np.abs(d[:, 2]), np.hypot(d[:, 0], d[:, 1])).max()
        resid = sym.check_relation(spec, op, "chs", grid)
        npt.assert_allclose(resid, expected, atol=1e-12)
        assert resid > 0.5

    def test_empty_grid_raises_and_empty_search_finds_nothing(self):
        spec = _bound("3d-diii")
        op = sym.designated_operators(spec)["phs"]
        with pytest.raises(DegenerateGridError):
            sym.check_relation(spec, op, "phs", np.zeros((0, 3)))
        for rel in ("phs", "trs", "chs"):
            assert sym.operator_search(spec, rel, n_per_axis=0) == []

    @pytest.mark.parametrize("n_per_axis", [-1, 2.5, True])
    def test_search_rejects_bad_grid_size(self, n_per_axis):
        with pytest.raises(InvalidInputError, match="n_per_axis must be an integer >= 0"):
            sym.operator_search(_bound("1d-phs"), "phs", n_per_axis=n_per_axis)

    def test_relation_holds_at_band_touchings(self):
        # the bands touch at k = 0 and -pi, where H = i log U has no branch;
        # the relation on U is defined there
        spec = pr.registry_lookup("1d-phs", T=6, angles={"alpha": np.pi / 2, "beta": np.pi / 2})
        op = sym.SymmetryOperator(np.eye(2, dtype=complex), "K")
        assert sym.check_relation(spec, op, "phs", np.array([[0.0], [-np.pi]])) <= 1e-12


class TestOperatorSearch:
    def test_1d_diii_phs_found_with_positive_square(self):
        hits = sym.operator_search(_bound("1d-diii"), "phs", n_per_axis=33)
        assert hits, "particle-hole candidates expected"
        assert any(op.square("phs") == 1 for op, _ in hits)

    def test_1d_cii_phs_found_with_negative_square(self):
        hits = sym.operator_search(_bound("1d-cii"), "phs", n_per_axis=33)
        assert any(op.square("phs") == -1 for op, _ in hits)

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
            squares = sorted({op.square("trs") for op, _ in hits})
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
        # Gamma is unitary at k and P = M_P K at -k, so (Gamma o P) = (Gamma M_P) K
        # at -k, the form of the antiunitary trs
        M = np.asarray(G.matrix) @ np.asarray(P.matrix)
        composed = sym.SymmetryOperator(M, label="G o P")
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


SPECIAL_ANGLES = [0.0, np.pi / 2, -np.pi / 2, np.pi, np.pi / 3, 2 * np.pi, 0.7]


def _lattice(pid):
    """The walks of `pid` at every pair of special values of its first two
    angles (its only one, if it has one), the others at 0, T in {1, 2, 6}."""
    symbols = pr.REGISTRY[pid].symbols[:2]
    return [pr.registry_lookup(pid, T=T, angles=dict(zip(symbols, values)))
            for T in (1, 2, 6) for values in product(SPECIAL_ANGLES, repeat=len(symbols))]


class TestStackedChiralAxes:
    def test_each_axis_is_the_formula_and_the_svd_of_its_cloud(self):
        # 1d-split: a T = 6 sweep and the special-angle lattice.  Each axis is
        # e_y's half-turn image of e_x, (cos T beta/2, 0, sin T beta/2), and
        # +- the last right singular vector of its walk's gap-open d on the
        # 24-point mesh wherever that cloud spans a plane; the sweep's two
        # walks at alpha = +-pi/2 and nine of the lattice's have too few
        # gap-open momenta to fit, and some lattice clouds are a line
        sweep = [pr.registry_lookup("1d-split", T=6, angles={"alpha": a, "beta": (a + np.pi) / 3})
                 for a in np.linspace(-np.pi, np.pi, 181)]
        specs = sweep + _lattice("1d-split")
        k = np.linspace(-np.pi, np.pi, 24, endpoint=False)
        got = sym.chiral_axes(specs[0], **as_stack(specs))
        assert got.shape == (len(specs), 3)
        fitted = 0
        for spec, axis in zip(specs, got):
            half = 0.5 * spec.T * spec.angles["beta"]
            assert np.abs(axis - [np.cos(half), 0.0, np.sin(half)]).max() <= 1e-12
            d = bloch(spec, k).d
            d = d[np.linalg.norm(d, axis=-1) > sym._BRANCH_MARGIN]
            assert np.abs(d @ axis).max(initial=0.0) <= 1e-12
            if len(d) < 3:
                continue
            _, s, vt = np.linalg.svd(d, full_matrices=False)
            if s[1] > 1e-6 * s[0]:
                assert min(np.abs(vt[-1] - axis).max(), np.abs(vt[-1] + axis).max()) <= 1e-12
                fitted += 1
        assert fitted >= 181 - 2

    @pytest.mark.parametrize("pid", ["1d-simple", "1d-split", "1d-chs", "2d-simple",
                                     "3d-simple", "1d-cii"])
    def test_formula_is_the_fit_on_random_walks(self, pid, rng):
        specs = [pr.registry_lookup(pid, T=int(rng.integers(1, 9)),
                                    angles=generic_angles(pr.REGISTRY[pid], rng))
                 for _ in range(8)]
        grid = sym.bz_grid(specs[0].dimension, {1: 16, 2: 16, 3: 8}[specs[0].dimension])
        for spec, axis in zip(specs, sym.chiral_axes(specs[0], **as_stack(specs))):
            fitted, ratio = sym.chiral_axis_fit(spec)
            assert ratio <= 1e-12
            assert min(np.abs(fitted - axis).max(), np.abs(fitted + axis).max()) <= 1e-12
            G = sym.axis_sigma(axis)
            op = sym.SymmetryOperator(G if spec.bands == 2 else su2.block_diag2(G, G.conj()))
            assert sym.check_relation(spec, op, "chs", grid) <= 1e-12

    def test_analytic_axes_are_chiral_axis(self):
        specs = _lattice("1d-chs")
        for spec, got in zip(specs, sym.chiral_axes(specs[0], **as_stack(specs))):
            assert got.tobytes() == sym.chiral_axis(spec).tobytes()

    def test_every_1d_phs_walk_raises(self):
        # 1d-phs has no chiral axis at any angles, not only where its d cloud
        # spans three axes
        specs = _lattice("1d-phs")
        for spec in specs:
            with pytest.raises(ClassificationError, match="not planar"):
                sym.chiral_axis(spec)
        with pytest.raises(ClassificationError, match="not planar"):
            sym.chiral_axes(specs[0], **as_stack(specs))

    @pytest.mark.parametrize("pid", [pid for pid in pr.PROTOCOL_IDS
                                     if pr.REGISTRY[pid].bands == 2])
    def test_axes_exist_exactly_for_the_catalogued_chiral_walks(self, pid):
        # at generic angles and on the special-angle lattice alike
        chiral = bool(sym._CATALOG[pid][0][2]) and "chs" not in sym._DECLARED.get(pid, ())
        for spec in [_bound(pid)] + _lattice(pid):
            if chiral:
                assert sym.chiral_axis(spec).shape == (3,)
            else:
                with pytest.raises(ClassificationError):
                    sym.chiral_axis(spec)


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


def _h_grid(spec, k):
    """(H, usable mask) with H = i log U the spectral reconstruction of U from
    `eig_unitary`, usable where every band is _BRANCH_MARGIN away from 0 and pi."""
    lam, vec = su2.eig_unitary(pr.build_unitary(spec, k))
    E = -np.angle(lam)
    H = np.einsum("...ai,...i,...bi->...ab", vec, E, vec.conj())
    return H, (np.minimum(np.abs(E), np.pi - np.abs(E)) > sym._BRANCH_MARGIN).all(axis=-1)


def _h_residual(op, relation, H, ok, Hp, okp):
    """The relation on H over the momenta usable at k and k' (-k for phs and
    trs, k for chs): M H*(k') M^dag = -H(k) (phs), +H(k) (trs);
    M^dag H(k') M = -H(k) (chs)."""
    ok = ok & okp
    assert ok.any()
    target = H if relation == "trs" else -H
    return np.abs(_sandwich(op, relation, Hp) - target).max(axis=(-2, -1))[ok].max()


def _sandwich(op, relation, X):
    """M^dag X M (chs) or M X* M^dag (phs, trs) from two per-point matmuls."""
    M = np.asarray(op.matrix, dtype=complex)
    return M.conj().T @ X @ M if relation == "chs" else M @ X.conj() @ M.conj().T


def _two_matmul_residual(op, relation, U, Up):
    """The relation residual on U from `_sandwich`: the reference for the
    one-product `_residual`.  Its target is U for phs and U^dag for trs and chs."""
    target = U if relation == "phs" else np.swapaxes(U, -1, -2).conj()
    return float(np.abs(_sandwich(op, relation, Up) - target).max())


def _classify_grids(spec):
    """U(k) and U(-k) on classify's open mesh."""
    mesh = sym._open_mesh(spec.dimension, sym.CLASSIFY_GRID[spec.dimension])
    return sym._grid_pair(spec, mesh, True)


class TestResidualProduct:
    """`_residual` reduces each relation with one (points, n^2) @ kron(A^T, B)
    product; it agrees with two per-point matmuls within 1e-15."""

    @pytest.mark.parametrize("pid", pr.PROTOCOL_IDS)
    def test_designated_operators_match_two_matmuls(self, pid):
        spec = sym._ensure_generic_angles(pr.registry_lookup(pid))
        U, Um = _classify_grids(spec)
        for rel, op in sym.designated_operators(spec).items():
            at = U if rel == "chs" else Um
            assert abs(sym._residual(op, rel, U, at)
                       - _two_matmul_residual(op, rel, U, at)) <= 1e-15, (rel, op.label)

    def test_search_candidates_match_two_matmuls(self):
        spec = sym._ensure_generic_angles(pr.registry_lookup("1d-cii"))
        U, Um = _classify_grids(spec)
        checked = 0
        for rel in ("phs", "trs", "chs"):
            for name, M in sym.default_candidates(spec):
                op = sym.SymmetryOperator(M, name)
                at = U if rel == "chs" else Um
                assert abs(sym._residual(op, rel, U, at)
                           - _two_matmul_residual(op, rel, U, at)) <= 1e-15, (rel, name)
                checked += 1
        assert checked == 3 * (32 + 4)  # tau_i x sigma_j with phases 1, i; the G blocks


class TestBlockHamiltonian:
    """Relations are checked on U; their verdicts must be those of the same
    relations on the reference H = i log U from the eigensolver."""

    @pytest.mark.parametrize("pid", pr.PROTOCOL_IDS)
    def test_matches_eigensolver_reconstruction(self, pid, rng):
        for spec in (_bound(pid), _bound(pid, rng)):
            k = sym.bz_grid(spec.dimension, sym.CLASSIFY_GRID[spec.dimension])
            U, Um = pr.build_unitary(spec, k), pr.build_unitary(spec, -k)
            H, Hm = _h_grid(spec, k), _h_grid(spec, -k)
            ops = list(sym.designated_operators(spec).items())
            for rel in ("phs", "trs", "chs"):
                ops += [(rel, sym.SymmetryOperator(M, name))
                        for name, M in sym.default_candidates(spec)]
            for rel, op in ops:
                at = (U, H) if rel == "chs" else (Um, Hm)
                by_u = sym._residual(op, rel, U, at[0])
                by_h = _h_residual(op, rel, *H, *at[1])
                assert (by_u <= sym.RESIDUAL_TOL) == (by_h <= sym.RESIDUAL_TOL), \
                    (rel, op.label, by_u, by_h)

    def test_classify_all_reads_two_grids_per_protocol(self, monkeypatch):
        grids, eigs = Counter(), []
        real_build = sym.build_unitary

        def counting_build(spec, k):
            grids[spec.id] += 1
            return real_build(spec, k)

        monkeypatch.setattr(sym, "build_unitary", counting_build)
        for module in [m for name, m in sys.modules.items() if name.startswith("topowalk")]:
            if hasattr(module, "eig_unitary"):
                monkeypatch.setattr(module, "eig_unitary", lambda U: eigs.append(U))
        for pid in pr.PROTOCOL_IDS:
            sym.classify(pid)
        assert grids and max(grids.values()) <= 2
        assert eigs == []


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
        rows = {row["protocol"]: row for row in cli._golden_table()}
        assert len(rows) == 22
        for report in map(sym.classify, pr.PROTOCOL_IDS):
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
            return {"phs": sym.SymmetryOperator(np.eye(4, dtype=complex), "K")}
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
