import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import as_stack, generic_angles
from topowalk import cli
from topowalk import protocols as pr
from topowalk import spectrum
from topowalk import symmetry
from topowalk import topology as tp
from topowalk.errors import BoundaryStateError, InvalidInputError
from topowalk.spectrum import EPS_GAP

PI = np.pi
FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


class TestGapClosings:
    def test_1d_chs_zero_angles_closes_at_zero_and_pi(self):
        pts = tp.find_gap_closings("1d-chs", angles={"alpha": 0.0, "beta": 0.0}, T=1)
        ks = sorted(round(p.k[0], 9) for p in pts)
        assert len(pts) == 2
        npt.assert_allclose(ks, [-PI, 0.0], atol=1e-9)
        energies = sorted(p.quasi_energy for p in pts)
        npt.assert_allclose(energies, [0.0, PI])
        assert max(p.residual for p in pts) <= 1e-9

    def test_1d_phs_type_one_configuration(self):
        # T=3, beta=pi/3 (odd half-angle), alpha=pi/3: closings at 0, +-pi
        pts = tp.find_gap_closings("1d-phs", angles={"alpha": PI / 3, "beta": PI / 3}, T=3)
        ks = sorted(round(p.k[0], 9) for p in pts)
        npt.assert_allclose(ks, [-PI, 0.0], atol=1e-9)

    def test_gapped_configuration_yields_empty_list(self):
        pts = tp.find_gap_closings("2d-phs", angles={"alpha": PI / 3, "beta": PI / 12},
                                   T=2, grid_n=48)
        assert pts == []

    def test_every_search_uses_one_grid_policy(self):
        # every search scans `scan_grid` points per axis, at least
        # MIN_SCAN_GRID: a one-walk call below the floor gives the floor's
        # result, given its closings or not, and the sweep refuses what the
        # one-walk calls refuse
        walk = {"angles": {"alpha": 0.0, "beta": 0.0}, "T": 1}
        for search in (tp.find_gap_closings, tp.classify_boundary):
            assert search("1d-chs", grid_n=16, **walk) == search("1d-chs", grid_n=32, **walk)
        walk = {"angles": {"alpha": PI / 3, "beta": PI / 6}, "T": 2}
        points = tp.find_gap_closings("2d-phs", grid_n=2, **walk)
        assert (tp.classify_boundary("2d-phs", gap_points=points, grid_n=2, **walk)
                == tp.classify_boundary("2d-phs", gap_points=points, grid_n=32, **walk))
        for grid_n in (True, 2.5, 0, -5):
            with pytest.raises(InvalidInputError, match="grid_n must be an integer >= 2"):
                tp.sweep_boundaries("1d-chs", grid_n, angles={"alpha": np.zeros(2), "beta": 0.0})

    def test_refine_tol_is_a_number_at_least_zero(self):
        # no |d| is <= NaN or <= -1: such a tolerance used to find nothing, silently
        walk = {"angles": {"alpha": PI / 2, "beta": PI / 2}, "T": 6}
        assert len(tp.find_gap_closings("1d-phs", **walk)) == 2
        for tol in (float("nan"), -1.0, True, "1e-9", None, 1j):
            with pytest.raises(InvalidInputError, match="refine_tol must be a number >= 0"):
                tp.find_gap_closings("1d-phs", refine_tol=tol, **walk)
        for tol in (3e-5, 1, np.float32(1e-9), np.int64(1), float("inf")):
            assert len(tp.find_gap_closings("1d-phs", refine_tol=tol, **walk)) == 2
        assert tp.find_gap_closings("1d-phs", refine_tol=0.0, **walk) == []

    def test_interior_closing_is_refined_to_machine_gap(self):
        # generic arc-type touch away from high-symmetry momenta
        alpha = PI / 4
        beta = (alpha + PI) / 3
        pts = tp.find_gap_closings("1d-phs", angles={"alpha": alpha, "beta": beta}, T=6)
        assert pts and max(p.residual for p in pts) <= 1e-9

    @pytest.mark.parametrize("pid, angles, grid_n, count", [
        # isolated Weyl points; per-axis coordinate descent found none of them
        ("3d-split", {"alpha": PI / 4, "beta": PI / 3, "gamma": PI / 4}, 32, 16),
        # the gap closes along lines, where dd/dk is rank-deficient
        ("2d-simple", {"beta": 0.0}, 64, 128),
    ])
    def test_refined_closings_agree_with_the_matrix_oracle(self, pid, angles, grid_n, count):
        pts = tp.find_gap_closings(pid, angles=angles, T=1, grid_n=grid_n)
        assert len(pts) == count
        k = np.array([p.k for p in pts])
        assert ((k >= -PI) & (k < PI)).all()
        d = spectrum.oracle_bands(pid, k, angles=angles, T=1).d
        assert np.linalg.norm(d, axis=-1).max() <= 1e-12


def _pairwise_merge(pts, d0, resid, refine_tol):
    """`_gap_points` with its duplicate check as a pairwise Python scan over
    the points kept so far: the reference for the array comparison."""
    e_plus = np.arccos(np.clip(d0, -1.0, 1.0))
    points = [tp.GapPoint(k=tuple(tp.wrap_pi(pts[i]).tolist()), residual=float(resid[i]),
                          quasi_energy=0.0 if e_plus[i] < PI / 2 else PI)
              for i in np.flatnonzero(resid <= refine_tol)]
    merged = []
    for p in sorted(points, key=lambda p: (p.quasi_energy,) + p.k):
        if not any(q.quasi_energy == p.quasi_energy
                   and np.abs(tp.wrap_pi(np.subtract(p.k, q.k))).max() < tp.MERGE_TOL
                   for q in merged):
            merged.append(p)
    return merged


def test_gap_point_merge_matches_pairwise_reference():
    # 3d-simple at beta = 0 closes on the planes k_x + k_y + k_z = 0 mod pi:
    # 2,048 distinct candidates on the 32-point scan; a slice of them, plus
    # copies one period away and copies within MERGE_TOL, which must merge,
    # and copies at the other quasi-energy, which must not
    spec = pr.registry_lookup("3d-simple", angles={"beta": 0.0})
    *_, pts, d0, resid = tp._closings(spec, *pr.stacked_params(spec), 32, [2 * PI] * 3)
    assert len(pts) == 2048
    pts, d0, resid = pts[:60], d0[:60], resid[:60]
    pts = np.concatenate([pts, pts + [2 * PI, 0.0, -2 * PI], pts + 0.3 * tp.MERGE_TOL, pts])
    d0, resid = np.concatenate([d0, d0, d0, -d0]), np.tile(resid, 4)
    merged = tp._gap_points(np.zeros(len(pts), int), pts, d0, resid, 1, EPS_GAP)[0]
    assert merged == _pairwise_merge(pts, d0, resid, EPS_GAP)
    assert len(merged) == 120


def test_gap_point_merge_across_pi_matches_pairwise_reference():
    """Clusters straddling +-pi on every axis, a chain of points 0.6 MERGE_TOL
    apart (the greedy merge keeps every other one), points in the wider last
    cell of the hash, and copies one period away, at both quasi-energies."""
    tol = tp.MERGE_TOL
    edge = [PI - 0.3 * tol, -PI + 0.4 * tol, -PI, PI - 1.7 * tol, PI - 2.9 * tol,
            np.nextafter(PI, 0.0), PI + 0.2 * tol]
    chain = [0.5 + 0.6 * tol * i for i in range(6)]
    base = np.array([(x, y) for x in edge + chain for y in edge[:4] + chain[:2]])
    pts = np.concatenate([base, base[::-1] + [2 * PI, -2 * PI], base + 0.45 * tol])
    d0 = np.where(np.arange(len(pts)) % 3 == 0, -0.5, 0.5)
    resid = np.zeros(len(pts))
    merged = tp._gap_points(np.zeros(len(pts), int), pts, d0, resid, 1, EPS_GAP)[0]
    assert merged == _pairwise_merge(pts, d0, resid, EPS_GAP)
    assert 20 < len(merged) < len(pts) / 2
    assert any(abs(p.k[0]) > 3.1 and abs(p.k[1]) > 3.1 for p in merged)


def _dense_scan(vals, cells):
    """`_scan` comparing every mesh point with its periodic neighbours on
    whole-mesh slices: the reference for the comparison at the candidates."""
    dim = len(cells)
    lead = vals.ndim - dim
    keep = vals < 2 * np.sqrt(dim) * cells.max()
    for ax in range(lead, vals.ndim):
        v, k = np.moveaxis(vals, ax, 0), np.moveaxis(keep, ax, 0)
        for here, there in ((slice(1, None), slice(None, -1)), (slice(None, -1), slice(1, None)),
                            (0, -1), (-1, 0)):
            k[here] &= v[here] <= v[there]
    idx = np.argwhere(keep)
    return idx[:, :lead], -PI + idx[:, lead:] * cells


@pytest.mark.parametrize("shape, dim", [
    ((64,), 1), ((3, 40), 1), ((2,), 1), ((4, 2), 1), ((12, 12), 2), ((3, 9, 2), 2),
    ((2, 2), 2), ((2, 5, 6, 7), 3), ((3, 2, 2, 2), 3)])
def test_scan_matches_dense_neighbour_reference(rng, shape, dim):
    """Same start points in the same order, bit for bit, with ties (values on
    a coarse lattice), NaN, leading walk axes, 1D to 3D and grids of 2."""
    cells = np.full(dim, 0.25 / np.sqrt(dim))
    kept = 0
    for _ in range(40):
        vals = np.round(rng.uniform(0.0, 1.2, size=shape), 1)
        vals[rng.uniform(size=shape) < 0.1] = np.nan
        got, want = tp._scan(vals, cells), _dense_scan(vals, cells)
        assert [(g.dtype, g.shape, g.tobytes()) for g in got] == [
            (w.dtype, w.shape, w.tobytes()) for w in want]
        kept += len(got[0])
    assert kept


class TestWrapPi:
    def test_edge_floats_on_both_sides_of_pi(self):
        edges = np.array([PI, -PI, 3 * PI, -3 * PI])
        xs = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf),
                             [0.0, 1.0, -1.0, 10.0, -10.0]])
        # the bare modulo sends the float just below -pi to +pi
        assert ((np.nextafter(-PI, -np.inf) + PI) % (2 * PI)) - PI == PI
        w = tp.wrap_pi(xs)
        assert np.all((w >= -PI) & (w < PI))
        turns = (w - xs) / (2 * PI)
        npt.assert_allclose(turns, np.round(turns), rtol=0, atol=1e-15)
        assert all(tp.wrap_pi(x) == wx for x, wx in zip(xs, w))


    def test_identity_on_values_in_range(self, rng):
        xs = np.concatenate([rng.uniform(-PI, PI, size=200),
                             [-PI, np.nextafter(-PI, np.inf), np.nextafter(PI, -np.inf),
                              0.0, -0.0, 0.1, -0.3, 1e-17, -1e-300]])
        npt.assert_array_equal(tp.wrap_pi(xs), xs)
        assert tp.wrap_pi(0.1) == 0.1 and tp.wrap_pi(1e-17) == 1e-17


class TestBoundaryTaxonomy:
    def test_flat_band_detected(self):
        cls = tp.classify_boundary("3d-simple", angles={"beta": PI / 3}, T=3, grid_n=32)
        assert [c.kind for c in cls] == ["flat_band"]
        npt.assert_allclose(cls[0].evidence["energy"], PI / 2, atol=1e-10)

    def test_flat_band_never_fires_on_dispersive_bands(self):
        cls = tp.classify_boundary("3d-simple", angles={"beta": 0.3}, T=1, grid_n=32)
        assert all(c.kind != "flat_band" for c in cls)

    def test_type_one_dirac(self):
        cls = tp.classify_boundary("1d-phs", angles={"alpha": PI / 2, "beta": PI / 2},
                                   T=6)
        assert {c.kind for c in cls} == {"dirac_type_one"}
        slopes = [s for c in cls for side in c.evidence["slopes"].values() for s in side]
        npt.assert_allclose(slopes, 1.0, atol=1e-6)

    def test_type_two_dirac_includes_half_pi_momenta(self):
        cls = tp.classify_boundary("1d-phs", angles={"alpha": 0.0, "beta": PI / 3}, T=6)
        assert {c.kind for c in cls} == {"dirac_type_two"}
        ks = sorted(round(c.evidence["k"][0], 6) for c in cls)
        npt.assert_allclose(ks, [-PI, -PI / 2, 0.0, PI / 2], atol=1e-6)
        slopes = [s for c in cls for side in c.evidence["slopes"].values() for s in side]
        npt.assert_allclose(slopes, 2.0, atol=1e-6)

    def test_generic_touch_is_fermi_arc(self):
        alpha = PI / 4
        cls = tp.classify_boundary("1d-phs", angles={"alpha": alpha,
                                                     "beta": (alpha + PI) / 3}, T=6)
        assert {c.kind for c in cls} == {"fermi_arc"}

    def test_gapped_config_returns_nothing(self):
        assert tp.classify_boundary("2d-phs", angles={"alpha": PI / 3, "beta": PI / 12},
                                    T=2, grid_n=48) == []

    def test_default_closings_come_from_one_mesh_pass(self, monkeypatch):
        shapes, real = [], tp._mesh_bloch

        def counting(plan, axes, shape):
            shapes.append(shape)
            return real(plan, axes, shape)

        monkeypatch.setattr(tp, "_mesh_bloch", counting)
        cls = tp.classify_boundary("1d-phs", angles={"alpha": PI / 2, "beta": PI / 2}, T=6)
        assert {c.kind for c in cls} == {"dirac_type_one"}
        assert shapes == [(1, 64)]


class TestOneBoundaryRoute:
    """`classify_boundary` reads the gap search's mesh whether its closings
    are found or given: at 2 points per axis the frequency-2 band of these
    walks aliases to a constant, which a mesh of grid_n points called flat."""

    @pytest.mark.parametrize("grid_n", [2, 8, 64])
    @pytest.mark.parametrize("pid, T, angles", [
        ("2d-phs", 2, {"alpha": PI / 3, "beta": PI / 6}),
        ("3d-phs", 1, {"alpha": 0.7, "beta": 1.1, "gamma": 0.4, "zeta": 0.0})])
    def test_given_closings_give_the_found_records(self, pid, T, angles, grid_n):
        walk = {"angles": angles, "T": T, "grid_n": grid_n}
        points = tp.find_gap_closings(pid, **walk)
        assert points
        found = tp.classify_boundary(pid, **walk)
        assert {c.kind for c in found} == {"fermi_arc"}
        assert tp.classify_boundary(pid, gap_points=points, **walk) == found

    @pytest.mark.parametrize("pid", ["2d-phs", "2d-nosym", "3d-phs", "3d-nosym"])
    def test_generic_walk_is_not_flat_on_a_coarse_grid(self, rng, pid):
        spec = pr.registry_lookup(pid)
        for _ in range(8):
            walk = {"angles": generic_angles(spec, rng), "T": int(rng.integers(1, 5))}
            assert tp.classify_boundary(pid, gap_points=[], grid_n=2, **walk) == [], walk

    def test_flat_walk_stays_flat_on_a_coarse_grid(self):
        cls = tp.classify_boundary("3d-simple", angles={"beta": PI / 3}, T=3, gap_points=[],
                                   grid_n=2)
        assert [c.kind for c in cls] == ["flat_band"]


class TestGivenClosings:
    """`classify_boundary` given its closings runs no gap search, and it
    refuses what is not a closing of the walk's dimension."""

    WALK = {"angles": {"alpha": 1.0, "beta": 0.5}, "T": 2}

    def test_no_search_runs(self, monkeypatch):
        points = tp.find_gap_closings("2d-phs", **self.WALK)
        assert points
        found = tp.classify_boundary("2d-phs", **self.WALK)
        searches, search = [], tp._closings

        def counting(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(tp, "_closings", counting)
        assert tp.classify_boundary("2d-phs", gap_points=points, **self.WALK) == found
        assert tp.classify_boundary("2d-phs", gap_points=[], **self.WALK) == []
        assert searches == []
        with pytest.raises(InvalidInputError, match="grid_n"):
            tp.classify_boundary("2d-phs", gap_points=points, grid_n=1, **self.WALK)

    @pytest.mark.parametrize("bad", [
        tp.GapPoint(k=(0.0,), quasi_energy=0.0, residual=0.0),
        tp.GapPoint(k=(0.0, 0.0, 0.0), quasi_energy=0.0, residual=0.0),
        tp.GapPoint(k=(np.nan, 0.0), quasi_energy=0.0, residual=0.0),
        tp.GapPoint(k=(np.inf, 0.0), quasi_energy=0.0, residual=0.0),
        tp.GapPoint(k=(True, 0.0), quasi_energy=0.0, residual=0.0),
        tp.GapPoint(k=("0", 0.0), quasi_energy=0.0, residual=0.0),
        tp.GapPoint(k=0.0, quasi_energy=0.0, residual=0.0),
        (0.0, 0.0),
        "k"])
    def test_refuses_what_is_no_closing(self, bad):
        with pytest.raises(InvalidInputError, match="GapPoint"):
            tp.classify_boundary("2d-phs", gap_points=[bad], **self.WALK)

    def test_refuses_a_lone_closing(self):
        point = tp.GapPoint(k=(0.0, 0.0), quasi_energy=0.0, residual=0.0)
        with pytest.raises(InvalidInputError, match="list of GapPoint"):
            tp.classify_boundary("2d-phs", gap_points=point, **self.WALK)


@pytest.mark.parametrize("call", [tp.classify_boundary, tp.chern_number])
@pytest.mark.parametrize("bad", [[0.5, 0.7], np.array([0.5, 0.7]), "0.5", None, 1j])
def test_one_walk_call_refuses_an_angle_that_is_no_real_number(call, bad):
    with pytest.raises(InvalidInputError, match="angle 'alpha'"):
        call("2d-phs", angles={"alpha": bad}, T=2)


@pytest.mark.parametrize("sweep", [tp.sweep_boundaries, tp.sweep_invariants])
def test_stack_refuses_angles_that_are_no_real_numbers(sweep):
    with pytest.raises(InvalidInputError, match="angle 'alpha'"):
        sweep("2d-phs", 32, angles={"alpha": ["0.5", "0.7"]}, T=2)


class TestFlatBandBound:
    """The flat-band check reads the Fourier coefficients of d0 = Re a: its
    `band_variation` bounds the + band's energy variation from above."""

    @pytest.mark.parametrize("eps", [0.0, 1e-9])
    def test_bound_covers_the_mesh_range(self, eps):
        walk = {"angles": {"beta": PI / 3 + eps}, "T": 3}
        (flat,) = tp.classify_boundary("3d-simple", gap_points=[], **walk)
        assert flat.kind == "flat_band"
        mesh = np.meshgrid(*symmetry.momentum_axes(3, 24), indexing="ij", sparse=True)
        plan = spectrum.two_band_plan(pr.registry_lookup("3d-simple", **walk))
        e = np.arccos(np.clip(plan.entries(mesh)[0].real, -1.0, 1.0))
        assert flat.evidence["band_variation"] >= e.max() - e.min()
        assert flat.evidence["band_variation"] <= tp.EPS_FLAT

    @pytest.mark.parametrize("pid", [p for p in pr.PROTOCOL_IDS if pr.REGISTRY[p].bands == 2])
    def test_bound_and_energy_against_the_step_loop(self, rng, pid):
        """On a stack of random walks, the bound covers the range of arccos(d0)
        on an open mesh up to rounding (the mesh meets d0's extremes where
        every phase is 1), and b_0 and S are those of the FFT of d0 on that
        mesh, exact for a mesh finer than every frequency."""
        spec = pr.registry_lookup(pid)
        dim = spec.dimension
        angles = {s: rng.uniform(-PI, PI, 4) for s in spec.symbols}
        T = rng.integers(1, 5, 4)
        flat = tp._flat_bands(spec, *pr.stacked_params(spec, angles, T))
        mesh = np.meshgrid(*symmetry.momentum_axes(dim, {1: 64, 2: 24, 3: 16}[dim]),
                           indexing="ij", sparse=True)
        for (bound, energy), t, i in zip(flat, T.tolist(), range(4)):
            walk = {"angles": {s: a[i] for s, a in angles.items()}, "T": t}
            d0 = spectrum.two_band_plan(pr.registry_lookup(pid, **walk)).entries(mesh)[0].real
            e = np.arccos(np.clip(d0, -1.0, 1.0))
            assert bound >= e.max() - e.min() - 1e-14
            b = np.fft.fftn(d0).ravel() / d0.size
            b0, spread = b[0].real, np.abs(b[1:]).sum()
            npt.assert_allclose(np.cos(energy), b0, rtol=0, atol=1e-14)
            npt.assert_allclose(bound, np.arccos(max(b0 - spread, -1.0))
                                - np.arccos(min(b0 + spread, 1.0)), rtol=0, atol=1e-9)

    def test_bound_of_a_synthetic_polynomial(self, monkeypatch, rng):
        """Complex coefficients at f and -f, and at f whose -f a lacks: the
        bound and energy are those of the FFT of d0 = Re a on a fine mesh."""
        freqs = (np.array([-1.0, 1.0, 2.0]), np.array([0.0, 1.0]))
        coef = 0.05 * (rng.normal(size=(3, 3, 2)) + 1j * rng.normal(size=(3, 3, 2)))

        class Plan:
            def fourier(self):
                return (freqs, coef), None

        monkeypatch.setattr(tp, "_plan", lambda *args: Plan())
        flat = tp._flat_bands(pr.registry_lookup("2d-phs"), {}, np.ones(3))
        k0, k1 = np.meshgrid(*symmetry.momentum_axes(2, 16), indexing="ij", sparse=True)
        for (bound, energy), c in zip(flat, coef):
            a = sum(c[i, j] * np.exp(1j * (f0 * k0 + f1 * k1))
                    for i, f0 in enumerate(freqs[0]) for j, f1 in enumerate(freqs[1]))
            b = np.fft.fftn(a.real).ravel() / a.size
            b0, spread = b[0].real, np.abs(b[1:]).sum()
            assert -1 < b0 - spread and b0 + spread < 1
            npt.assert_allclose([bound, np.cos(energy)],
                                [np.arccos(b0 - spread) - np.arccos(b0 + spread), b0],
                                rtol=0, atol=1e-12)

    @pytest.mark.parametrize("eps", [1e-6, 1e-3])
    def test_near_flat_walk_is_not_flat(self, eps):
        for gap_points in ([], None):
            cls = tp.classify_boundary("3d-simple", angles={"beta": PI / 3 + eps}, T=3,
                                       gap_points=gap_points, grid_n=2)
            assert all(c.kind != "flat_band" for c in cls)

    @pytest.mark.parametrize("pid", ["1d-phs", "2d-phs", "2d-nosym", "3d-phs"])
    @pytest.mark.parametrize("grid_n", [2, 64])
    def test_generic_walk_is_never_flat(self, rng, pid, grid_n):
        spec = pr.registry_lookup(pid)
        for _ in range(8):
            walk = {"angles": generic_angles(spec, rng), "T": int(rng.integers(1, 5))}
            assert tp.classify_boundary(pid, gap_points=[], grid_n=grid_n, **walk) == [], walk


def _loop_classify(spec, gap_points):
    """(kind, evidence) per closing from one-sided gap fits taken one closing,
    axis and sign at a time: the reference `_classify`'s array fits must equal."""
    s = np.linspace(tp.FIT_WINDOW / 20, tp.FIT_WINDOW, 20)
    plan, dim = spectrum.two_band_plan(spec), spec.dimension
    gapless_set = [p.k for p in gap_points]
    out = []
    for p in gap_points:
        slopes, resids = {}, {}
        for ax in range(dim):
            slopes[ax], resids[ax] = [], []
            for sign in (1.0, -1.0):
                k = np.array(p.k) + np.eye(dim)[ax] * (sign * s)[:, None]
                e = np.arccos(np.clip(plan.entries(k)[0].real, -1.0, 1.0))
                gp = np.minimum(e, PI - e)
                slope = float((gp @ s) / (s @ s))
                scale = max(abs(slope) * tp.FIT_WINDOW, 1e-300)
                slopes[ax].append(abs(slope))
                resids[ax].append(float(np.sqrt(np.mean((gp - slope * s) ** 2)) / scale))
        if all(min(slopes[ax]) >= tp.DIRAC_MIN_SLOPE and max(resids[ax]) <= tp.DIRAC_RESIDUAL_REL
               for ax in slopes):
            kind = "dirac_type_one"
            if dim == 1 and not tp._is_high_symmetry_set(gapless_set, [(0.0,), (PI,)]):
                kind = ("dirac_type_two" if tp._is_high_symmetry_set(
                    gapless_set, [(0.0,), (PI,), (PI / 2,), (-PI / 2,)]) else "unclassified")
        else:
            kind = "fermi_arc" if max(max(v) for v in slopes.values()) > 0 else "unclassified"
        out.append((kind, {"k": p.k, "quasi_energy": p.quasi_energy, "slopes": slopes,
                           "linear_fit_rel_residual": resids, "gapless_set": gapless_set}))
    return out


@pytest.mark.parametrize("pid, T, angles", [
    ("1d-phs", 6, {"alpha": PI / 2, "beta": PI / 2}),
    ("1d-phs", 6, {"alpha": 0.0, "beta": PI / 3}),
    ("1d-phs", 6, {"alpha": PI / 4, "beta": (PI / 4 + PI) / 3}),
    ("2d-phs", 2, {"alpha": PI / 3, "beta": PI / 6}),
    ("3d-chs", 1, {"alpha": PI / 2, "beta": PI / 2}),
])
def test_gap_fits_equal_the_per_closing_loop(pid, T, angles):
    spec = pr.registry_lookup(pid, T=T, angles=angles)
    points = tp.find_gap_closings(spec, grid_n=32)
    assert points
    got = [(c.kind, c.evidence)
           for c in tp._classify(spec, *pr.stacked_params(spec), [points])[0]]
    assert got == _loop_classify(spec, points)


class TestWinding:
    def test_trivial_and_nontrivial_regions(self):
        t = {"T": 6}
        w0 = tp.winding_number("1d-chs", angles={"alpha": -2.618,
                                                 "beta": (-2.618 + PI) / 3}, **t)
        assert (w0.w, round(w0.raw, 6)) == (0, 0.0)
        wm = tp.winding_number("1d-chs", angles={"alpha": -2.094,
                                                 "beta": (-2.094 + PI) / 3}, **t)
        assert wm.w == -1
        wp = tp.winding_number("1d-chs", angles={"alpha": 2.094,
                                                 "beta": (2.094 + PI) / 3}, **t)
        assert wp.w == 1

    def test_boundary_loop_raises(self):
        with pytest.raises(BoundaryStateError):
            tp.winding_number("1d-chs", angles={"alpha": 0.0, "beta": PI / 3}, T=6)

    def test_grid_doubling_stability(self):
        angles = {"alpha": 2.094, "beta": (2.094 + PI) / 3}
        a = tp.winding_number("1d-chs", angles=angles, T=6, grid_n=128)
        b = tp.winding_number("1d-chs", angles=angles, T=6, grid_n=256)
        assert a.w == b.w
        assert abs(a.raw - b.raw) <= 1e-3

    def test_orientation_reversal_flips_sign(self, monkeypatch):
        # the root count about -A, whose frame (e1, e2, -A) turns the other way
        spec = pr.registry_lookup("1d-chs", T=6,
                                  angles={"alpha": 2.094, "beta": (2.094 + PI) / 3})
        w_fwd = tp.winding_number(spec)
        monkeypatch.setattr(tp, "chiral_axes",
                            lambda spec, **stack: -symmetry.chiral_axes(spec, **stack))
        w_rev = tp.winding_number(spec)
        assert w_fwd.w == -w_rev.w != 0
        assert (w_fwd.raw, w_rev.raw) == (float(w_fwd.w), float(w_rev.w))

    def test_winding_supported_for_planar_split_walk(self):
        res = tp.winding_number("1d-split", angles={"alpha": 0.3, "beta": 0.9}, T=2)
        assert abs(res.raw - res.w) <= 0.02

    def test_rejects_wrong_dimension(self):
        with pytest.raises(InvalidInputError):
            tp.winding_number("2d-phs", angles={"alpha": 0.1, "beta": 0.2}, T=1)


class TestChern:
    def test_reference_fixture_is_plus_one(self):
        res = tp.chern_number("2d-phs", angles={"alpha": PI / 3, "beta": PI / 4}, T=2)
        assert (res.c, round(res.raw, 9)) == (1, 1.0)

    def test_trivial_phases(self):
        for beta in (PI / 12, PI / 2):
            res = tp.chern_number("2d-phs", angles={"alpha": PI / 3, "beta": beta}, T=2)
            assert res.c == 0 and abs(res.raw) <= 1e-6

    def test_origin_pass_raises(self):
        with pytest.raises(BoundaryStateError):
            tp.chern_number("2d-phs", angles={"alpha": PI / 3, "beta": PI / 6}, T=2)

    def test_band_additivity(self):
        # the two bands carry opposite Chern numbers; the lower band is
        # reached by conjugating the walk (d -> -d leaves gaps in place)
        angles = {"alpha": PI / 3, "beta": PI / 4}
        up = tp.chern_number("2d-phs", angles=angles, T=2)
        spec = pr.registry_lookup("2d-phs", T=2, angles=angles)

        import topowalk.topology as topo
        from topowalk.spectrum import bands_from_unitary
        from topowalk.protocols import build_unitary

        px, py = topo.momentum_period(spec, 0), topo.momentum_period(spec, 1)
        ax = np.linspace(-PI, -PI + px, 64, endpoint=False)
        ay = np.linspace(-PI, -PI + py, 64, endpoint=False)
        KX, KY = np.meshgrid(ax, ay, indexing="ij")
        d = bands_from_unitary(build_unitary(spec, np.stack([KX, KY], -1))).d
        n = -d / np.linalg.norm(d, axis=-1, keepdims=True)  # lower band
        n2 = np.roll(n, -1, axis=0)
        n3 = np.roll(np.roll(n, -1, axis=0), -1, axis=1)
        n4 = np.roll(n, -1, axis=1)
        n, n2, n3, n4 = (np.moveaxis(v, -1, 0) for v in (n, n2, n3, n4))
        omega = _solid_angle(n, n2, n3) + _solid_angle(n, n3, n4)
        down_raw = topo.CHERN_ORIENTATION * omega.sum() / (4 * PI)
        assert abs(up.raw + down_raw) <= 1e-9

    def test_link_variables_agree_with_the_count(self):
        # Fukui-Hatsugai-Suzuki link variables of the + band's eigenvectors of
        # d.sigma: an independent reference, up to one orientation sign shared
        # by both nontrivial fixtures, which carry opposite Chern numbers
        n = 64
        fixtures = [("2d-phs", 2, {"alpha": PI / 3, "beta": PI / 4}, 1),
                    ("2d-nosym", 3, {"alpha": PI / 3, "gamma": PI / 4, "beta": PI / 2}, -1)]
        signs = set()
        for pid, T, angles, want in fixtures:
            spec = pr.registry_lookup(pid, T=T, angles=angles)
            assert tp.chern_number(spec, grid_n=n).c == want
            axes = symmetry.momentum_axes(2, n, [tp.momentum_period(spec, a) for a in range(2)])
            k = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            d = spectrum.bloch(spec, k).d
            h = np.einsum("...i,ijk->...jk", d, np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                                                          [[1, 0], [0, -1]]]))
            u = np.linalg.eigh(h)[1][..., 1]  # the eigenvector of +|d|

            def link(axis):
                z = (u.conj() * np.roll(u, -1, axis=axis)).sum(axis=-1)
                return z / np.abs(z)

            ux, uy = link(0), link(1)
            flux = np.angle(ux * np.roll(uy, -1, axis=0) / np.roll(ux, -1, axis=1) / uy)
            c = flux.sum() / (2 * PI)
            assert abs(c - round(c)) <= 1e-9 and abs(round(c)) == 1
            signs.add(round(c) * want)
        assert len(signs) == 1

    def test_grid_doubling_stability(self):
        angles = {"alpha": PI / 3, "beta": PI / 4}
        a = tp.chern_number("2d-phs", angles=angles, T=2, grid_n=64)
        b = tp.chern_number("2d-phs", angles=angles, T=2, grid_n=128)
        assert a.c == b.c and abs(a.raw - b.raw) <= 1e-3

    def test_rejects_wrong_dimension(self):
        with pytest.raises(InvalidInputError):
            tp.chern_number("1d-chs", angles={"alpha": 0.1, "beta": 0.2}, T=1)


_GRID_CALLS = {
    "winding_number": lambda g: tp.winding_number(
        "1d-chs", angles={"alpha": 2.094, "beta": (2.094 + PI) / 3}, T=6, grid_n=g),
    "chern_number": lambda g: tp.chern_number(
        "2d-phs", angles={"alpha": PI / 3, "beta": PI / 4}, T=2, grid_n=g),
    "find_gap_closings": lambda g: tp.find_gap_closings(
        "1d-phs", angles={"alpha": PI / 2, "beta": PI / 2}, T=6, grid_n=g),
    "classify_boundary": lambda g: tp.classify_boundary(
        "1d-phs", angles={"alpha": PI / 2, "beta": PI / 2}, T=6, grid_n=g),
    "classify_boundary given closings": lambda g: tp.classify_boundary(
        "1d-phs", angles={"alpha": PI / 2, "beta": PI / 2}, T=6, grid_n=g, gap_points=[]),
}


@pytest.mark.parametrize("fn", sorted(_GRID_CALLS))
@pytest.mark.parametrize("grid_n", [0, -4, 2.5, 1, True])
def test_bad_grid_n_is_invalid_input(fn, grid_n):
    with pytest.raises(InvalidInputError, match="grid_n must be an integer >= 2"):
        _GRID_CALLS[fn](grid_n)


def test_two_points_per_axis_is_a_valid_grid():
    assert tp.scan_grid(2) == tp.scan_grid(np.int64(2)) == tp.MIN_SCAN_GRID == 32
    assert tp.scan_grid(64) == 64


class TestSweepInvariants:
    @pytest.mark.parametrize("pid, T, grid_n", [
        ("1d-chs", 6, 128), ("1d-split", 2, 64), ("2d-phs", 2, 32), ("2d-nosym", 3, 24)])
    def test_raw_equals_the_public_invariant(self, rng, pid, T, grid_n):
        symbols = pr.registry_lookup(pid).symbols
        specs = [pr.registry_lookup(pid, T=T, angles={s: float(rng.uniform(-PI, PI))
                                                      for s in symbols}) for _ in range(16)]
        dim = specs[0].dimension
        public = tp.winding_number if dim == 1 else tp.chern_number
        results = tp.sweep_invariants(pid, grid_n, **as_stack(specs))
        assert len(results) == len(specs)
        for spec, res in zip(specs, results):
            try:
                want = public(spec, grid_n=grid_n)
            except BoundaryStateError:
                assert res is None  # random angles: no gap closing, only undefined invariants
                continue
            assert res == (want.w if dim == 1 else want.c, want.raw)
        assert any(res is not None for res in results)

    def test_walk_at_a_closing_has_no_invariant(self):
        off = pr.registry_lookup("2d-phs", T=2, angles={"alpha": PI / 3, "beta": PI / 4})
        got = tp.sweep_invariants("2d-phs", 64, T=2, angles={
            "alpha": PI / 3, "beta": np.array([PI / 4, PI / 6, PI / 4])})
        want = tp.chern_number(off, grid_n=64)
        assert got == [(want.c, want.raw), None, (want.c, want.raw)]

    @pytest.mark.parametrize("pid, T, angles, grid_n", [
        ("2d-nosym", 3, {"alpha": PI / 3, "gamma": PI / 4, "beta": 3 * PI / 4}, 50),
        ("2d-phs", 2, {"alpha": PI / 3, "beta": PI / 6}, 63),
        ("1d-chs", 6, {"alpha": -PI / 2, "beta": (-PI / 2 + PI) / 3}, 255)])
    def test_closing_between_mesh_points_has_no_invariant(self, pid, T, angles, grid_n):
        # the gap closes between mesh points, where the discretized degree is
        # still an integer (1, 0 and 0); the one-walk calls run the gap search
        spec = pr.registry_lookup(pid, T=T, angles=angles)
        public = tp.winding_number if spec.dimension == 1 else tp.chern_number
        with pytest.raises(BoundaryStateError, match="undefined: the gap closes at k = "):
            public(spec, grid_n=grid_n)
        assert tp.sweep_invariants(spec, grid_n) == [None]

    @pytest.mark.parametrize("pid, T, angles, want", [
        ("2d-phs", 2, {"alpha": PI / 3, "beta": PI / 4}, 1),
        ("2d-simple", 1, {"beta": PI / 2}, 0),
        ("2d-nosym", 1, {"alpha": 3 * PI / 4, "beta": PI / 2, "gamma": 0.0}, 0)])
    def test_coarse_grid_counts_on_the_scan_floor(self, pid, T, angles, want):
        # a Chern number is never counted on fewer than MIN_SCAN_GRID points
        # per axis: these coarse meshes used to give -0.5 (not quantized), -3
        # at grid 3 and -4 at grid 8
        spec = pr.registry_lookup(pid, T=T, angles=angles)
        fine = tp.chern_number(spec, grid_n=64)
        assert (fine.c, fine.raw) == (want, float(want))
        for grid_n in (2, 3, 8, tp.MIN_SCAN_GRID):
            assert tp.chern_number(spec, grid_n=grid_n) == fine
            assert tp.sweep_invariants(spec, grid_n) == [(want, float(want))]

    def test_rejects_3d(self):
        with pytest.raises(InvalidInputError):
            tp.sweep_invariants("3d-simple", 8)

    @pytest.mark.parametrize("sweep", [tp.sweep_invariants, tp.sweep_boundaries])
    def test_empty_stack_has_no_results(self, sweep):
        for pid, stack in (("2d-phs", {"angles": {"beta": np.array([])}}),
                           ("1d-chs", {"T": np.array([], dtype=int)})):
            assert sweep(pid, 32, **stack) == []
            for grid_n in (True, 0, 2.5):  # the grid is checked first, on no walks too
                with pytest.raises(InvalidInputError, match="grid_n must be an integer >= 2"):
                    sweep(pid, grid_n, **stack)


class TestStackInput:
    """A stack of walks is one protocol with its angles and T each a scalar or
    a 1-D array along the stack (`protocols.stacked_params`)."""

    @pytest.mark.parametrize("sweep", [tp.sweep_invariants, tp.sweep_boundaries])
    @pytest.mark.parametrize("angles, T", [
        ({"alpha": np.full((2, 2), PI / 3)}, 2),  # a 2-D array
        ({"alpha": np.full(3, PI / 3), "beta": np.full(2, PI / 4)}, 2),  # two lengths
        ({"alpha": np.full(3, PI / 3)}, np.array([1, 2])),
        ({}, np.array([[2]])),
        ({}, np.array([2, 0])),  # T = 0
        ({}, np.array([2, 2.5])),
        ({"gamma": np.full(2, PI / 4)}, 2),  # 2d-phs has no gamma
    ])
    def test_bad_stack_is_invalid_input(self, sweep, angles, T):
        with pytest.raises(InvalidInputError):
            sweep("2d-phs", 32, angles={"alpha": PI / 3, "beta": PI / 4, **angles}, T=T)

    def test_stacked_params_broadcast_to_one_shape(self):
        spec = pr.registry_lookup("2d-nosym", T=3, angles={"gamma": 0.25})
        angles, T = pr.stacked_params(spec, {"alpha": [0.5, -0.5]})
        assert T.dtype == np.int64 and T.tolist() == [3, 3]
        assert {s: a.tolist() for s, a in angles.items()} == {
            "alpha": [0.5, -0.5], "beta": [0.0, 0.0], "gamma": [0.25, 0.25]}
        assert all(a.dtype == np.float64 for a in angles.values())
        angles, T = pr.stacked_params(spec, T=np.array([2.0, 4.0]))
        assert T.dtype == np.int64 and T.tolist() == [2, 4]
        assert pr.stacked_params(spec)[1].tolist() == [3]  # scalars: a stack of one
        with pytest.raises(InvalidInputError, match="at most 64 bits"):
            pr.stacked_params(spec, T=np.array([2.0 ** 63]))

    @pytest.mark.parametrize("pid, grid_n", [("1d-chs", 64), ("1d-split", 64), ("2d-phs", 32)])
    def test_stack_equals_each_walk_alone(self, pid, grid_n):
        first, second = pr.registry_lookup(pid).symbols
        alpha = np.linspace(-PI, PI, 9)
        angles = {first: alpha, second: alpha / 3 + PI / 3}
        T = np.array([1, 2, 3, 6, 1, 2, 3, 6, 2])
        invariants = tp.sweep_invariants(pid, grid_n, angles=angles, T=T)
        boundaries = tp.sweep_boundaries(pid, grid_n, angles=angles, T=T)
        for i, t in enumerate(T.tolist()):
            walk = {s: a[i] for s, a in angles.items()}
            assert [invariants[i]] == tp.sweep_invariants(pid, grid_n, angles=walk, T=t)
            assert [boundaries[i]] == tp.sweep_boundaries(pid, grid_n, angles=walk, T=t)
        assert None in invariants and any(r is not None for r in invariants)
        assert any(points for points, _ in boundaries)


def _reference_windings(specs):
    """Per 1D walk, its winding or None at a boundary, independently of the
    root route: the Laurent coefficients of z(k) = (e1 + i e2).d(k), in a
    frame of its own about the chiral axis, by FFT of the step loop's d at 8
    momenta, then numpy.roots of w z(w) one walk at a time.  A walk with
    d = 0 at every sample closes its gap everywhere."""
    k = 2 * PI * np.arange(8) / 8
    plan = spectrum.two_band_plan(
        specs[0], angles={s: np.array([[w.angles[s]] for w in specs]) for s in specs[0].angles},
        T=np.array([[w.T] for w in specs]))
    d = np.stack(spectrum.bloch_entries(*plan.entries(k))[1], axis=-1)
    assert all(tp.momentum_period(spec, 0) == 2 * PI for spec in specs)
    A = np.array([symmetry.chiral_axis(spec) for spec in specs])
    e1 = np.cross(A, np.eye(3)[np.argmin(np.abs(A), axis=1)])
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    coef = np.fft.fft((d @ (e1 + 1j * np.cross(A, e1))[:, :, None])[..., 0]) / 8
    assert np.abs(coef[:, 2:7]).max() <= 1e-12  # z_f at f mod 8: frequencies -1, 0, 1 only
    out = [None] * len(specs)
    for i, (z0, z1, *_, z_1) in enumerate(coef):
        if np.abs(d[i]).max() <= EPS_GAP:
            continue
        roots = np.roots([z1, z0, z_1])
        on_circle = np.exp(1j * np.angle(roots))
        gap = np.abs(z_1 / on_circle + z0 + z1 * on_circle)
        out[i] = None if (gap <= EPS_GAP).any() else int((np.abs(roots) < 1).sum()) - 1
    return out


class TestWindingContinuity:
    """A winding changes only where the gap closes: two values of one sweep
    with an open gap everywhere between them have one winding."""

    def test_certified_open_gap_keeps_the_winding(self, rng):
        # The gap is certified open over the whole segment from d on a
        # (values, k) mesh: |d| moves by at most L_k per unit of k (the
        # shifts' total |m|) and by at most T/2 per unit of a coin angle, so
        # min |d| above L_k h/2 + L_v dv/2 leaves no closing between mesh
        # points.  The windings of the two ends are then equal.
        k = np.linspace(-PI, PI, 1024, endpoint=False)
        certified = 0
        for _ in range(48):
            pid = str(rng.choice(["1d-simple", "1d-split", "1d-chs"]))
            spec = pr.registry_lookup(pid, T=int(rng.integers(1, 9)),
                                      angles=generic_angles(pr.REGISTRY[pid], rng))
            symbol = str(rng.choice(spec.symbols))
            start = rng.uniform(-PI, PI)
            values = np.linspace(start, start + rng.uniform(0.05, 1.0), 201)
            d = spectrum.bloch(spec, k, angles={symbol: values[:, None]}).d
            steps = spectrum.two_band_plan(spec).steps
            lip_k = sum(abs(m) for kind, data in steps if kind == "shift" for _, m in data)
            lip_v = spec.T / 2 * sum(getattr(el, "symbol", None) == symbol
                                     for el in spec.elements)
            margin = lip_k * PI / len(k) + lip_v * (values[1] - values[0]) / 2
            if np.linalg.norm(d, axis=-1).min() <= margin:
                continue
            certified += 1
            stack = {"angles": {symbol: values}}
            assert not any(points for points, _ in tp.sweep_boundaries(spec, 32, **stack))
            ends = tp.sweep_invariants(spec, 32, angles={symbol: values[[0, -1]]})
            assert ends[0] is not None and ends[0] == ends[1], (pid, spec.T, spec.angles,
                                                                symbol, values[[0, -1]])
        assert certified >= 16


class TestRootCount:
    """The 1D windings of `sweep_invariants` equal an independent root count."""

    def test_fig6_line(self):
        # 20,001 values of fig6's line; at 36 of them, all within 5.7e-3 of the
        # touching at alpha = -pi/2, the loop passes the origin between the
        # points of a 256-point mesh
        specs = [pr.registry_lookup("1d-chs", T=6, angles={"alpha": a, "beta": a / 3 + PI / 3})
                 for a in np.linspace(-PI, PI, 20001).tolist()]
        want = _reference_windings(specs)
        assert tp.sweep_invariants("1d-chs", 256, **as_stack(specs)) == [
            None if n is None else (n, float(n)) for n in want]
        assert {-1, 0, 1, None} == set(want)

    @pytest.mark.parametrize("pid, gapless", [("1d-simple", 0), ("1d-split", 9), ("1d-chs", 0)])
    def test_special_angle_lattice(self, pid, gapless):
        # exactly zero coefficients, and 1d-split walks gapless at every k
        symbols = pr.REGISTRY[pid].symbols
        values = [0.0, PI / 2, -PI / 2, PI, PI / 3, 2 * PI, 0.7]
        specs = [pr.registry_lookup(pid, T=T, angles=dict(zip(symbols, angles)))
                 for T in (1, 2, 6) for angles in product(values, repeat=len(symbols))]
        want = _reference_windings(specs)
        assert tp.sweep_invariants(pid, 2, **as_stack(specs)) == [
            None if n is None else (n, float(n)) for n in want]
        assert sum(np.abs(spectrum.bloch(s, np.linspace(-PI, PI, 9)).d).max() <= EPS_GAP
                   for s in specs) == gapless


@pytest.mark.parametrize("z, winding, closes", [
    ([0.0, 0.5, 1.0], 1, None),  # 0.5 + e^{ik}: roots 0 and -0.5 of w z(w)
    ([1.0, 0.5, 0.0], -1, None),  # e^{-ik} + 0.5: roots -2 and infinity
    ([0.0, 2.0, 0.0], 0, None),  # 2: roots 0 and infinity
    ([1.0, 0.0, 1.0], None, -PI / 2),  # 2 cos k: roots -i and i on the circle
    ([0.0, 1e-12, 0.0], None, -PI),  # |z| = 1e-12 at every k
    ([0.0, 0.0, 0.0], None, -PI)])
def test_root_count_puts_exactly_zero_ends_at_zero_and_infinity(z, winding, closes):
    # stacked beside 2 e^{-ik} + 1 + 0.5 e^{ik}, whose roots -1 +- i sqrt(3) are outside
    inside, k = tp._root_count(np.array([z, [2.0, 1.0, 0.5]], dtype=complex))
    assert inside[1] - 1 == -1 and k[1] == np.inf
    if winding is None:
        assert k[0] == pytest.approx(closes, abs=1e-12)
    else:
        assert (inside[0] - 1, k[0]) == (winding, np.inf)


class TestChernNearBoundary:
    """2D stays on the mesh: grids 32 and 128 agree next to a catalogued boundary."""

    @pytest.mark.parametrize("pid, T, angles, beta", [
        ("2d-phs", 2, {"alpha": PI / 3}, PI / 6),
        ("2d-nosym", 3, {"alpha": PI / 3, "gamma": PI / 4}, 3 * PI / 4)])
    def test_grid_ladder(self, pid, T, angles, beta):
        offsets = [sign * 10.0 ** -e for e in range(1, 7) for sign in (1, -1)]
        stack = {"T": T, "angles": dict(angles, beta=beta + np.array(offsets))}
        coarse, fine = ([None if r is None else r[0]
                         for r in tp.sweep_invariants(pid, n, **stack)] for n in (32, 128))
        assert coarse == fine
        assert 0 in fine and len(set(fine) - {None}) == 2  # the ladder crosses the boundary

    @pytest.mark.parametrize("pid", ["2d-simple", "2d-split", "2d-phs", "2d-nosym"])
    def test_special_angle_lattice_matches_the_solid_angle_sum(self, monkeypatch, pid):
        # {0, pi/2, pi/3, 0.7} per angle x T in {1, 2, 3}: the integer and
        # status of the count equal the rounded plaquette solid-angle sum on
        # the same mesh, after the same gap search
        searches, search = [], tp._closings

        def closings(*args):
            searches.append(search(*args))
            return searches[-1]

        monkeypatch.setattr(tp, "_closings", closings)
        symbols = pr.registry_lookup(pid).symbols
        specs = [pr.registry_lookup(pid, T=T, angles=dict(zip(symbols, a)))
                 for T in (1, 2, 3) for a in product((0.0, PI / 2, PI / 3, 0.7),
                                                     repeat=len(symbols))]
        for grid_n in (32, 64):
            got = [None if r is None else r[0]
                   for r in tp.sweep_invariants(pid, grid_n, **as_stack(specs))]
            d, norm, which, _, _, resid = searches.pop()
            raw, margin = _rolled_chern(d, norm)
            closed = set(which[resid <= EPS_GAP].tolist())
            want = [None if i in closed or m <= EPS_GAP or abs(r - round(r)) > tp.QUANT_TOL
                    else round(r) for i, (r, m) in enumerate(zip(raw.tolist(), margin.tolist()))]
            assert got == want
            assert None in got and 0 in got
            assert (set(got) > {None, 0}) == (pid in ("2d-phs", "2d-nosym"))


TWO_BAND_IDS = [pid for pid in pr.PROTOCOL_IDS if pr.REGISTRY[pid].bands == 2]


def _assert_mesh_matches_step_loop(spec, rng, period):
    """`_mesh_bloch`, for a stack of three walks of `spec` and for one, equals
    the step loop on the open mesh within 1e-14."""
    dim = spec.dimension
    lead = (3,) + (1,) * dim
    stacked = spectrum.two_band_plan(
        spec, angles={s: rng.uniform(-PI, PI, lead) for s in spec.symbols},
        T=rng.integers(1, 6, lead))
    single = spectrum.two_band_plan(spec, angles=generic_angles(spec, rng), T=4)
    for grid_n in ({1: 37, 2: 13, 3: 5}[dim], 2):
        axes = symmetry.momentum_axes(dim, grid_n, [period] * dim)
        mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
        for plan, walks in ((stacked, (3,)), (single, ())):
            shape = walks + (grid_n,) * dim
            d = spectrum.bloch_entries(*plan.entries(mesh))[1]
            want = np.stack([np.broadcast_to(x, shape) for x in d])
            got, norm = tp._mesh_bloch(plan, axes, shape)
            npt.assert_allclose(got, want, rtol=0, atol=1e-14)
            npt.assert_allclose(norm, np.sqrt((want * want).sum(axis=0)), rtol=0, atol=1e-14)


class TestMeshFourier:
    """The dense mesh pass sums Fourier terms (`Plan.fourier`); the step loop
    on the open mesh is its reference."""

    @pytest.mark.parametrize("pid", TWO_BAND_IDS)
    @pytest.mark.parametrize("period", [PI, 2 * PI])
    def test_matches_step_loop(self, rng, pid, period):
        _assert_mesh_matches_step_loop(pr.registry_lookup(pid), rng, period)

    @pytest.mark.parametrize("elements", [
        (pr.Coin("beta"), pr.shift_both(2, 1)),
        (pr.Coin("alpha"), pr.shift_both(3, 1, 2), pr.Coin("beta", pr.AXIS_NU),
         pr.shift_both(3, 2))])
    def test_walk_without_a_shift_along_axis_0(self, rng, elements):
        """Every registered walk shifts along axis 0; a caller's walk need not,
        and then each entry has only frequency 0 on the first axis."""
        dim = len(elements[1].up)
        spec = pr.ProtocolSpec(id="no-axis-0-shift", dimension=dim, elements=elements)
        for freqs, _ in spectrum.two_band_plan(spec, angles=generic_angles(spec)).fourier():
            assert freqs[0].tolist() == [0]
        _assert_mesh_matches_step_loop(spec, rng, 2 * PI)

    @pytest.mark.parametrize("pid", TWO_BAND_IDS)
    def test_stacked_walk_equals_walk_alone(self, rng, pid):
        """A stack mixing a zero-angle walk (every coin the identity) with
        generic walks gives each walk the bits it has when evaluated alone."""
        spec = pr.registry_lookup(pid)
        dim = spec.dimension
        specs = [spec.with_params(T=1, **{s: 0.0 for s in spec.symbols})] + [
            spec.with_params(T=int(t), **generic_angles(spec, rng)) for t in (2, 5)]
        lead = (len(specs),) + (1,) * dim
        plan = spectrum.two_band_plan(
            spec, angles={s: np.reshape([w.angles[s] for w in specs], lead)
                          for s in spec.symbols},
            T=np.reshape([w.T for w in specs], lead))
        grid_n = {1: 40, 2: 12, 3: 6}[dim]
        axes = symmetry.momentum_axes(dim, grid_n)
        out, norm = tp._mesh_bloch(plan, axes, (len(specs),) + (grid_n,) * dim)
        for i, walk in enumerate(specs):
            alone, alone_norm = tp._mesh_bloch(spectrum.two_band_plan(walk), axes,
                                               (grid_n,) * dim)
            assert out[:, i].tobytes() == alone.tobytes()
            assert norm[i].tobytes() == alone_norm.tobytes()


def _stacked_plan(pid, count, rng):
    """The plan of `count` walks of `pid` at random angles and T = 2, as (V, 1, ...)
    arrays the way `topology._closings` stacks a chunk of sweep values."""
    spec = pr.registry_lookup(pid)
    lead = (count,) + (1,) * spec.dimension
    angles = {s: rng.uniform(-PI, PI, count).reshape(lead) for s in spec.symbols}
    return spectrum.two_band_plan(spec, angles=angles, T=np.full(lead, 2)), spec.dimension


def _at_block_sizes(monkeypatch, fn):
    """fn() with one block over the whole mesh, then with BLOCK_POINTS 1 and 7:
    blocks of uneven row counts, each smaller than a row of the 2D and 3D meshes."""
    outs = []
    for points in (2 ** 40, 1, 7):
        monkeypatch.setattr(tp, "BLOCK_POINTS", points)
        outs.append(fn())
    return outs


def _as_bytes(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


class TestBlocks:
    """Blocking a dense mesh changes no bits: every block value is elementwise."""

    @pytest.mark.parametrize("pid, grid_n", [("1d-chs", 37), ("2d-phs", 13), ("3d-phs", 6)])
    @pytest.mark.parametrize("count", [1, 3])
    def test_mesh_bloch(self, monkeypatch, rng, pid, grid_n, count):
        plan, dim = _stacked_plan(pid, count, rng)
        axes = symmetry.momentum_axes(dim, grid_n)
        shape = (count,) + (grid_n,) * dim
        one, *blocked = _at_block_sizes(monkeypatch, lambda: _as_bytes(
            tp._mesh_bloch(plan, axes, shape)))
        assert one[0][0] == (3,) + shape and one[1][0] == shape
        assert all(b == one for b in blocked)

    @pytest.mark.parametrize("pid, grid_n", [("1d-chs", 40), ("2d-phs", 24)])
    def test_sweep_invariants(self, monkeypatch, pid, grid_n):
        first, second = pr.registry_lookup(pid).symbols
        v = np.linspace(-PI, PI, 9)
        angles = {first: v, second: v / 3 + PI / 3}
        one, *blocked = _at_block_sizes(monkeypatch, lambda: repr(
            tp.sweep_invariants(pid, grid_n, angles=angles, T=2)))
        assert "None" in one and "(" in one  # closed and gapped walks both
        assert all(b == one for b in blocked)

    def test_sweep_boundaries(self, monkeypatch):
        angles = {"alpha": PI / 3, "beta": np.array([PI / 12, PI / 6, PI / 4])}
        one, *blocked = _at_block_sizes(monkeypatch, lambda: repr(
            tp.sweep_boundaries("2d-phs", 8, angles=angles, T=2)))
        assert "GapPoint" in one
        assert all(b == one for b in blocked)

    def test_chern_number(self, monkeypatch):
        one, *blocked = _at_block_sizes(monkeypatch, lambda: repr(tp.chern_number(
            "2d-phs", angles={"alpha": PI / 3, "beta": PI / 4}, T=2, grid_n=33)))
        assert one.startswith("ChernResult(c=1,")
        assert all(b == one for b in blocked)

    def test_zero_d_point_is_flagged(self, monkeypatch, rng):
        d = rng.normal(size=(3, 2, 11, 11))
        d[:, 1, 4, 7] = 0.0
        norm = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        one, *blocked = _at_block_sizes(monkeypatch, lambda: _as_bytes(tp._chern(d, norm)))
        assert all(b == one for b in blocked)
        raw, margin = tp._chern(d, norm)
        assert margin[1] == 0.0 and margin[0] > 0.0 and np.isfinite(raw[0])
        with pytest.raises(BoundaryStateError, match="passes the origin"):
            tp._quantized("Chern number", float(raw[1]), float(margin[1]))


def _solid_angle(a, b, c):
    """Signed solid angle of the geodesic triangle of unit vectors a, b, c,
    each given as its component triple (x, y, z) of arrays (Van Oosterom &
    Strackee): the reference the Chern count is checked against."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = a, b, c
    num = ax * (by * cz - bz * cy) + ay * (bz * cx - bx * cz) + az * (bx * cy - by * cx)
    den = (1.0 + (ax * bx + ay * by + az * bz) + (bx * cx + by * cy + bz * cz)
           + (cx * ax + cy * ay + cz * az))
    return 2.0 * np.arctan2(num, den)


def _rolled_chern(d, norm):
    """The plaquette solid-angle sum of every walk of d (3, V, N, N), from
    whole-mesh np.roll copies of n_hat, over 4 pi, and min |d|: the
    reference for the tiled count of `topology._chern`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        n1 = d / norm
    n2 = np.roll(n1, -1, axis=-2)
    n3, n4 = np.roll(n2, -1, axis=-1), np.roll(n1, -1, axis=-1)
    omega = _solid_angle(n1, n2, n3) + _solid_angle(n1, n3, n4)
    return (tp.CHERN_ORIENTATION * omega.sum(axis=(-2, -1)) / (4 * PI),
            norm.min(axis=(-2, -1)))


class TestChernTiles:
    """The tiled count is the rounded whole-mesh solid-angle sum, at any block size."""

    @pytest.mark.parametrize("points", [None, 1, 7])
    @pytest.mark.parametrize("n", [2, 3, 8, 33])
    @pytest.mark.parametrize("count, open_walks", [(1, None), (3, None), (3, [0, 2])])
    def test_matches_rolled_reference(self, monkeypatch, rng, points, n, count, open_walks):
        """open_walks: the copy `sweep_invariants` reduces when some walks close."""
        d = rng.normal(size=(3, count, n, n))
        d[:, -1, n // 2, n - 1] = 0.0  # in the wrap column of the last walk
        norm = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        if open_walks is not None:
            d, norm = d[:, open_walks], norm[open_walks]
        whole = tp._chern(d, norm)
        if points is not None:
            monkeypatch.setattr(tp, "BLOCK_POINTS", points)
        raw, margin = got = tp._chern(d, norm)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in whole]
        ref_raw, ref_margin = _rolled_chern(d, norm)
        assert margin.tobytes() == ref_margin.tobytes()
        last = [i == len(norm) - 1 for i in range(len(norm))]
        assert (margin == 0.0).tolist() == last
        # a zero d is no antipodal edge; every count is an integer
        assert np.isfinite(raw).all() and (raw == np.round(raw)).all()
        npt.assert_array_equal(raw[:-1], np.round(ref_raw[:-1]))

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 33])
    def test_count_is_the_rounded_solid_angle_sum(self, rng, n):
        d = rng.normal(size=(3, 300, n, n))
        norm = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        raw, _ = tp._chern(d, norm)
        ref = _rolled_chern(d, norm)[0]
        assert np.abs(ref - np.round(ref)).max() <= 1e-9
        npt.assert_array_equal(raw, np.round(ref))
        assert not np.signbit(raw[raw == 0]).any()  # 0.0, never -0.0

    def test_frame_is_a_proper_rotation_off_the_axes(self):
        R = tp.CHERN_FRAME
        npt.assert_allclose(R @ R.T, np.eye(3), rtol=0, atol=1e-15)
        assert abs(np.linalg.det(R) - 1.0) <= 1e-15
        assert np.abs(R[2]).min() >= 0.4  # p = R^T e_z is off every coordinate plane

    @staticmethod
    def _insulator(n, m=1.0):
        """d = (sin kx, sin ky, m + cos kx + cos ky) on the n x n torus, with
        the sines exactly 0 at k in {0, pi}: there n_hat = +-e_z exactly."""
        k = -PI + 2 * PI * np.arange(n) / n
        s, c = np.sin(k), np.cos(k)
        s[np.isclose(np.abs(k), PI) | (k == 0)] = 0.0
        kx, ky = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        d = np.stack([s[kx], s[ky], m + c[kx] + c[ky]])[:, None]
        return d, np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])

    @pytest.mark.parametrize("identity", [False, True])
    @pytest.mark.parametrize("n", [8, 32, 33])
    def test_points_at_the_poles(self, monkeypatch, n, identity):
        """identity: p = e_z is exactly the direction of the poles, so every
        edge at a pole has an exactly zero determinant, which the one fixed
        move of p must resolve for its triangles alike."""
        if identity:
            monkeypatch.setattr(tp, "CHERN_FRAME", np.eye(3))
        for m in (1.0, -1.0, 0.5, 3.0):
            d, norm = self._insulator(n, m)
            poles = (d[0] == 0) & (d[1] == 0)
            assert poles.sum() >= (1 if n % 2 else 4)
            raw, margin = tp._chern(d, norm)
            ref = _rolled_chern(d, norm)[0]
            assert raw[0] == np.round(ref[0]) == (0 if m == 3.0 else 1 if m > 0 else -1)
            assert margin[0] > 0

    @pytest.mark.parametrize("axis", [-2, -1])
    def test_d_constant_along_one_axis_has_degree_zero(self, rng, axis):
        d = np.repeat(rng.normal(size=(3, 2, 1, 12)) if axis == -2
                      else rng.normal(size=(3, 2, 12, 1)), 12, axis=axis)
        norm = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        raw, margin = tp._chern(d, norm)
        assert raw.tolist() == [0.0, 0.0] and not np.signbit(raw).any()
        assert tp._quantized("Chern number", float(raw[0]), float(margin[0])) == 0

    def test_antipodal_edge_has_no_chern_number(self):
        d, norm = self._insulator(16)
        d = np.concatenate([d, d], axis=1)
        d[:, 1, 5, 9] = -d[:, 1, 5, 8]  # n_hat flips across one column edge of walk 1
        norm = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        raw, margin = tp._chern(d, norm)
        assert abs(raw[0]) == 1.0 and np.isnan(raw[1]) and (margin > 0).all()
        with pytest.raises(BoundaryStateError, match="antipodal across a mesh edge"):
            tp._quantized("Chern number", float(raw[1]), float(margin[1]))

    def test_sweep_invariants_footprint(self):
        """One 512^2 Chern walk holds d and |d| on the full mesh (four float
        arrays, 8 MiB) and only block-sized arrays beside them.  The 2 MiB
        slack covers the reused (x', y') tile (2 x 34 rows of 513, 0.3 MiB),
        the edge determinants and their signs of one block (about 0.6 MiB);
        the search before it (`_closings`) peaks lower, at d, |d| and its own
        block temporaries.  A full-mesh array beside d (2 MiB), such as a d0
        or a per-plaquette sum, breaks the bound."""
        n = 512
        spec = pr.registry_lookup("2d-phs", T=2, angles={"alpha": PI / 3, "beta": PI / 4})
        tracemalloc.start()
        try:
            result = tp.sweep_invariants(spec, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result[0][0] == 1
        assert peak <= 4 * 8 * n * n + 2 * 2 ** 20


class TestMomentumPeriod:
    def test_full_shift_pairs_give_pi(self):
        spec = pr.registry_lookup("2d-phs")
        assert tp.momentum_period(spec, 0) == PI
        assert tp.momentum_period(spec, 1) == PI

    def test_half_shifts_give_two_pi(self):
        spec = pr.registry_lookup("1d-chs")
        assert tp.momentum_period(spec, 0) == 2 * PI

    def test_single_full_shift_gives_two_pi(self):
        spec = pr.registry_lookup("2d-simple")
        assert tp.momentum_period(spec, 0) == 2 * PI

    @pytest.mark.parametrize("pid", ["2d-phs", "2d-nosym", "3d-phs"])
    def test_claimed_period_holds_numerically(self, pid):
        spec = pr.registry_lookup(pid, T=2)
        spec = spec.with_params(**{s: v for s, v in zip(spec.symbols, (0.7, -0.3, 1.1, 0.4))})
        rng = np.random.default_rng(5)
        k = rng.uniform(-PI, PI, size=(6, spec.dimension))
        for axis in range(spec.dimension):
            p = tp.momentum_period(spec, axis)
            shift = np.zeros(spec.dimension)
            shift[axis] = p
            assert np.abs(pr.build_unitary(spec, k + shift)
                          - pr.build_unitary(spec, k)).max() <= 1e-12


class TestPhaseBoundaryTrace:
    """Sweeps of the invariant across phase boundaries, through the CLI."""

    @staticmethod
    def _invariant(tmp_path, name, argv):
        out = tmp_path / name
        assert cli.main(["invariant"] + argv + ["--out", str(out)]) == 0
        return out.read_bytes()

    def test_invariance_within_phases_chern_sweep(self, tmp_path):
        # fig10: 2d-phs at T = 2, alpha = pi/3, beta over [pi/12, 2 pi/3]
        text = self._invariant(tmp_path, "fig10.csv",
                               ["--config", str(FIXTURE_DIR / "fig10.cfg"), "--grid", "48"])
        rows = [r.split(",") for r in text.decode().splitlines()[1:]]
        assert [(r[3], r[1]) for r in rows] == [
            ("ok", "0"), ("boundary", ""), ("ok", "1"), ("boundary", ""),
            ("ok", "0"), ("ok", "0"), ("ok", "0"), ("boundary", "")]

    def test_t_equals_one_matches_step_independent_sweep(self, tmp_path):
        argv = ["--protocol", "1d-chs", "--set", "beta=0.9", "--sweep", "alpha:-2:2:7",
                "--steps", "1", "--grid", "64"]
        a = self._invariant(tmp_path, "a.csv", argv)
        b = self._invariant(tmp_path, "b.csv", argv + ["--step-independent"])
        assert a == b and b"ok" in a

    def test_boundary_population_grows_with_step_number(self):
        """Distinct phase transitions along the fixed-angle sweep multiply as
        the walk proceeds.  The growth is a trend, not a per-step law: at
        commensurate steps (here T divisible by 3, where T beta/2 hits a
        multiple of pi/2) many transitions merge, so successive counts can
        dip; endpoints and window averages must still grow."""
        from scipy.optimize import minimize_scalar
        from topowalk.spectrum import rho_closed_form

        k = np.linspace(-PI, PI, 257)[:, None]
        alphas = np.linspace(-PI, PI, 721)

        def boundary_count(T):
            def m(a):
                rho = rho_closed_form("1d-phs", {"alpha": a, "beta": PI / 3}, T, k)
                return (1 - np.abs(rho)).min()

            vals = np.array([m(a) for a in alphas])
            found = []
            for i in range(1, len(alphas) - 1):
                if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1] and vals[i] < 5e-2:
                    r = minimize_scalar(m, bounds=(alphas[i - 1], alphas[i + 1]),
                                        method="bounded", options={"xatol": 1e-10})
                    if r.fun < 1e-6 and all(abs(r.x - f) > 1e-6 for f in found):
                        found.append(r.x)
            return len(found)

        counts = {T: boundary_count(T) for T in (2, 3, 7, 8)}
        assert counts[7] > counts[2] and counts[8] > counts[3], counts
        assert counts[8] >= 3 * counts[2], counts
