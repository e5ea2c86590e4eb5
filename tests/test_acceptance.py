"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 5 contains one assertion that is provably unsatisfiable as
stated (the two nontrivial Chern fixtures carry opposite signs under any
single orientation convention; two independent methods agree) — see
tests/test_topology.py::TestChern and the README's "known deviations" note.
"""
import json
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from topowalk import cli
from topowalk import protocols as pr
from topowalk import spectrum as sp
from topowalk import symmetry as sym
from topowalk import topology as tp
from topowalk.errors import BoundaryStateError

PI = np.pi
RNG_SEED = 20240811


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _samples(pid, n, rng):
    spec = pr.registry_lookup(pid)
    angles = {s: rng.uniform(-PI, PI, n) for s in spec.symbols}
    T = rng.integers(1, 13, n).astype(float)
    k = rng.uniform(-PI, PI, (n, spec.dimension))
    return spec, angles, T, k


def test_criterion_01_closed_form_energy_vs_oracle():
    rng = np.random.default_rng(RNG_SEED)
    t0 = time.time()
    worst = 0.0
    for pid in sp.CLOSED_FORM_IDS:
        spec, angles, T, k = _samples(pid, 10_000, rng)
        bands = sp.bands_from_unitary(pr.build_unitary(spec, k, angles=angles, T=T))
        rho = sp.rho_closed_form(pid, angles, T, k)
        worst = max(worst, float(np.abs(rho - np.cos(bands.e_plus)).max()))
    elapsed = time.time() - t0
    _report(1, worst <= 1e-10 and elapsed < 30.0,
            f"9 protocols x 10000 samples, max |rho - cos E| = {worst:.2e},"
            f" runtime {elapsed:.1f}s (< 30s)")


def test_criterion_02_closed_form_d_vs_oracle():
    rng = np.random.default_rng(RNG_SEED + 1)
    worst = 0.0
    signs = set()
    for pid in sp.CLOSED_FORM_IDS:
        spec, angles, T, k = _samples(pid, 2_000, rng)
        bands = sp.bands_from_unitary(pr.build_unitary(spec, k, angles=angles, T=T))
        d = sp.d_closed_form(pid, angles, T, k)
        err_plus, err_minus = np.abs(bands.d - d).max(), np.abs(bands.d + d).max()
        signs.add(1 if err_plus <= err_minus else -1)  # the global sign that fits best
        worst = max(worst, min(err_plus, err_minus))
    _report(2, worst <= 1e-9 and signs == {1},
            f"9 protocols x 2000 samples, max |d_closed - d_oracle| = {worst:.2e},"
            f" global sign {sorted(signs)} everywhere")


def test_criterion_03_analytic_vs_numeric_velocity():
    rng = np.random.default_rng(RNG_SEED + 2)
    worst = 0.0
    h = 1e-5
    for pid in sp.CLOSED_FORM_IDS:
        spec = pr.registry_lookup(pid, T=4)
        spec = spec.with_params(**{s: rng.uniform(-PI, PI) for s in spec.symbols})
        picks = []
        while len(picks) < 500:
            k = rng.uniform(-PI, PI, (4_000, spec.dimension))
            norm = np.linalg.norm(
                sp.bands_from_unitary(pr.build_unitary(spec, k)).d, axis=-1)
            # open-gap margin: the 1e-6 FD tolerance at h = 1e-5 needs the
            # arccos curvature bounded, i.e. |d| away from 0
            picks.extend(k[norm >= 0.3][: 500 - len(picks)])
        k = np.asarray(picks)
        for ax in range(spec.dimension):
            vc = sp.group_velocity_closed(pid, spec.angles, spec.T, k, ax)
            step = h * np.eye(spec.dimension)[ax]  # a central difference of `bloch`
            vn = (sp.bloch(spec, k + step).e_plus - sp.bloch(spec, k - step).e_plus) / (2 * h)
            worst = max(worst, float(np.abs(vc - vn).max()))
    _report(3, worst <= 1e-6,
            f"9 protocols x 500 open-gap points, max |V_closed - V_fd| = {worst:.2e}")


def test_criterion_04_classification_table_reproduction(tmp_path):
    out = tmp_path / "symmetry.json"
    code = cli.main(["symmetry", "all", "--golden", "--out", str(out)])
    n = len(json.loads(out.read_text())["records"])
    _report(4, code == 0 and n == 22,
            f"cmd_symmetry all --golden exit code {code}, {n} protocols diffed")


def test_criterion_05_chern_fixtures():
    results = []
    angles_phs = lambda b: {"alpha": PI / 3, "beta": b}
    for beta, want in ((PI / 12, 0), (PI / 4, 1), (PI / 2, 0)):
        res = tp.chern_number("2d-phs", angles=angles_phs(beta), T=2, grid_n=64)
        results.append((f"2d-phs beta={beta:.3f}", res.c, want,
                        abs(res.raw - res.c) <= 0.02))
    for beta in (PI / 6, PI / 3, 2 * PI / 3):
        try:
            tp.chern_number("2d-phs", angles=angles_phs(beta), T=2, grid_n=64)
            results.append((f"2d-phs beta={beta:.3f} boundary", "gapped", "boundary", False))
        except BoundaryStateError:
            results.append((f"2d-phs beta={beta:.3f} boundary", "boundary", "boundary", True))
    angles_ns = lambda b: {"alpha": PI / 3, "beta": b, "gamma": PI / 4}
    for beta, want in ((0.0, 0), (PI / 3, 0), (PI / 2, 1)):
        res = tp.chern_number("2d-nosym", angles=angles_ns(beta), T=3, grid_n=64)
        results.append((f"2d-nosym beta={beta:.3f}", res.c, want,
                        abs(res.raw - res.c) <= 0.02))
    for beta in (PI / 4, 3 * PI / 4):
        try:
            tp.chern_number("2d-nosym", angles=angles_ns(beta), T=3, grid_n=64)
            results.append((f"2d-nosym beta={beta:.3f} boundary", "gapped", "boundary", False))
        except BoundaryStateError:
            results.append((f"2d-nosym beta={beta:.3f} boundary", "boundary", "boundary", True))

    bad = [(label, got, want) for (label, got, want, q) in results
           if not q or got != want]
    ok = not bad
    detail = "all Chern fixtures quantized and as catalogued"
    if bad:
        detail = ("mismatches " + "; ".join(f"{l}: got {g}, stated {w}" for l, g, w in bad)
                  + " — the two nontrivial fixtures provably carry opposite"
                  " orientation (see ledger); magnitudes and phase structure match")
    _report(5, ok, detail)


def test_criterion_06_winding_fixtures():
    found = {}
    boundaries = 0
    for a in np.linspace(-PI, PI, 49):
        angles = {"alpha": float(a), "beta": (float(a) + PI) / 3}
        try:
            res = tp.winding_number("1d-chs", angles=angles, T=6, grid_n=256)
            res2 = tp.winding_number("1d-chs", angles=angles, T=6, grid_n=512)
            stable = (abs(res.w) == abs(res2.w)) and abs(res.raw - res2.raw) <= 1e-3
            found.setdefault(res.w, 0)
            found[res.w] += 1
            assert stable
        except BoundaryStateError:
            boundaries += 1
    ok = set(found) == {-1, 0, 1} and boundaries >= 2
    _report(6, ok,
            f"winding regions {sorted(found)} with {boundaries} origin-passing"
            " sweep samples; |w| stable under grid doubling")


def test_criterion_07_special_case_band_laws():
    ks = np.linspace(-PI, PI, 257)[:, None]
    e = sp.bands_from_unitary(pr.build_unitary(
        pr.registry_lookup("1d-chs", T=1, angles={"alpha": 0.0, "beta": 0.0}), ks)).e_plus
    err_linear = float(np.abs(e - np.abs(ks[:, 0])).max())

    rng = np.random.default_rng(RNG_SEED + 3)
    k3 = rng.uniform(-PI, PI, (800, 3))
    errs_flat = []
    for T, beta in ((1, PI), (3, PI / 3), (5, (PI + 4 * PI) / 5)):  # T*beta = pi mod 4pi
        e = sp.bands_from_unitary(pr.build_unitary(
            pr.registry_lookup("3d-simple", T=T, angles={"beta": beta}), k3)).e_plus
        errs_flat.append(float(np.abs(e - PI / 2).max()))
    for T in (1, 2, 5):
        theta = PI / T
        spec = pr.registry_lookup("3d-split", T=T,
                                  angles={"alpha": theta, "beta": theta, "gamma": theta})
        e = sp.bands_from_unitary(pr.build_unitary(spec, k3)).e_plus
        errs_flat.append(float(np.abs(e - PI / 2).max()))
    worst_flat = max(errs_flat)
    ok = err_linear <= 1e-10 and worst_flat <= 1e-10
    _report(7, ok, f"E=|k| law err {err_linear:.2e}; flat-band laws err {worst_flat:.2e}")


def test_criterion_08_velocity_ranges():
    ks = np.linspace(-PI, PI, 257)[:, None]
    vmax_chs = 0.0
    for a in np.linspace(-PI, PI, 41):
        angles = {"alpha": float(a), "beta": PI / 3}
        rho = sp.rho_closed_form("1d-chs", angles, 6, ks)
        open_gap = 1 - rho ** 2 > 1e-12
        v = np.abs(sp.drho_closed_form("1d-chs", angles, 6, ks, 0)[open_gap]
                   / np.sqrt((1 - rho ** 2)[open_gap]))
        vmax_chs = max(vmax_chs, float(v.max()))
    chs_ok = vmax_chs <= 1 + 1e-9 and vmax_chs >= 0.99

    a = 0.02  # just off the type-two closing of the linked fixture
    angles = {"alpha": a, "beta": (a + PI) / 3}
    v = np.abs(sp.group_velocity_closed("1d-phs", angles, 6, ks, 0))
    phs_ok = v.max() >= 1.9 and v.max() <= 2 + 1e-9
    _report(8, chs_ok and phs_ok,
            f"1d-chs max |V| = {vmax_chs:.6f} (<= 1, attains >= 0.99);"
            f" 1d-phs near type-two closing max |V| = {float(v.max()):.4f} (~ 2)")


def _fixture_boundaries(T, linked, n_alpha=721):
    """Boundary angles of the 1d-phs sweeps, refined on the min-|d| metric."""
    ks = np.linspace(-PI, PI, 513)[:, None]

    def beta_of(a):
        return (a + PI) / 3 if linked else PI / 3

    def m(a):
        d = sp.d_closed_form("1d-phs", {"alpha": a, "beta": beta_of(a)}, T, ks)
        return float(np.linalg.norm(d, axis=-1).min())

    alphas = np.linspace(-PI, PI, n_alpha)
    vals = np.array([m(a) for a in alphas])
    found = []
    for i in range(len(alphas)):
        im, ip = (i - 1) % len(alphas), (i + 1) % len(alphas)
        if vals[i] <= vals[im] and vals[i] <= vals[ip] and vals[i] < 5e-2:
            r = minimize_scalar(m, bounds=(alphas[i] - 0.01, alphas[i] + 0.01),
                                method="bounded", options={"xatol": 1e-10})
            if r.fun < 1e-4 and all(abs(r.x - f) > 1e-5 for f in found):
                found.append(float(r.x))
    return sorted(found)


def _classify_at(T, alpha, linked):
    beta = (alpha + PI) / 3 if linked else PI / 3
    spec = pr.registry_lookup("1d-phs", T=T, angles={"alpha": alpha, "beta": beta})
    # the boundary angle is located to ~1e-10, which leaves a residual gap of
    # up to ~1e-5 at arc-type touchings; the taxonomy fit window (>= 2.5e-3)
    # is scale-separated from it
    pts = tp.find_gap_closings(spec, refine_tol=3e-5)
    return tp.classify_boundary(spec, gap_points=pts)


def test_criterion_09_boundary_taxonomy_fixtures():
    one_kind_per_step = {}
    for T in range(2, 9):
        kinds = set()
        for a in _fixture_boundaries(T, linked=False):
            kinds |= {c.kind for c in _classify_at(T, a, linked=False)}
        one_kind_per_step[T] = sorted(kinds)
    fig1_ok = all(len(k) == 1 for k in one_kind_per_step.values())

    fig2_ok = True
    sets_ok = True
    for T in (6, 8):
        kinds = set()
        for a in _fixture_boundaries(T, linked=True):
            classes = _classify_at(T, a, linked=True)
            kinds |= {c.kind for c in classes}
            for c in classes:
                gapless = [round(kk[0] / (PI / 2)) for kk in c.evidence["gapless_set"]]
                if c.kind == "dirac_type_one":
                    sets_ok &= all(g % 2 == 0 for g in gapless)  # only 0, +-pi
                if c.kind == "dirac_type_two":
                    sets_ok &= any(g % 2 != 0 for g in gapless)  # includes +-pi/2
        fig2_ok &= kinds >= {"dirac_type_one", "dirac_type_two", "fermi_arc"}
    _report(9, fig1_ok and fig2_ok and sets_ok,
            f"independent-angle sweep: one kind per step {one_kind_per_step};"
            " linked sweep (T=6,8): all three kinds with distinguished gapless sets")


TRS_PRESENT = ["1d-simple", "1d-split", "1d-diii", "1d-cii", "2d-simple", "2d-split",
               "2d-diii", "2d-aii", "3d-simple", "3d-split", "3d-diii", "3d-cii",
               "3d-aii"]


def _mirror(vals, dim, n):
    """values at -k from values on the uniform grid (index reversal mod n)."""
    grid_shape = [n] * dim
    v = vals.reshape(grid_shape + list(vals.shape[1:]))
    for ax in range(dim):
        v = np.roll(np.flip(v, axis=ax), 1, axis=ax)
    return v.reshape(vals.shape)


def test_criterion_10_trs_energy_symmetry():
    n = 64
    worst = {}
    rng = np.random.default_rng(RNG_SEED + 4)
    for pid in TRS_PRESENT:
        spec = sym._ensure_generic_angles(pr.registry_lookup(pid))
        dim = spec.dimension
        k = sym.bz_grid(dim, n)
        if spec.bands == 2:
            e = sp.bands_from_unitary(pr.build_unitary(spec, k)).e_plus
            diff = np.abs(e - _mirror(e, dim, n)).max()
        elif spec.doubled == "transpose_block":
            # block-diagonal: the four-band spectrum is {+-E(k), +-E(-k)} of
            # the base walk, exactly; verified against dense eigenvalues on a
            # subsample below
            from dataclasses import replace
            base = replace(spec, doubled=None)
            e = sp.bands_from_unitary(pr.build_unitary(base, k)).e_plus
            em = _mirror(e, dim, n)
            bands = np.sort(np.stack([e, -e, em, -em], axis=-1), axis=-1)
            diff = np.abs(bands - _mirror(bands, dim, n)).max()
            idx = rng.choice(k.shape[0], size=min(512, k.shape[0]), replace=False)
            # eigenvalue exp(-iE) carries quasi-energy +E
            dense = np.sort(-np.angle(np.linalg.eigvals(pr.build_unitary(spec, k[idx]))), axis=-1)
            assert np.abs(np.sort(dense, axis=-1) - bands[idx]).max() <= 1e-10
        else:  # trs_sandwich: dense eigenvalues
            bands = np.sort(-np.angle(np.linalg.eigvals(pr.build_unitary(spec, k))), axis=-1)
            diff = np.abs(bands - _mirror(bands, dim, n)).max()
        worst[pid] = float(diff)
    bad = {p: v for p, v in worst.items() if v > 1e-10}
    _report(10, not bad,
            f"max |E(k) - E(-k)| over 64-per-axis grids = {max(worst.values()):.2e}"
            + (f"; failing: {bad}" if bad else ""))


def test_criterion_11_step_independent_reduction(tmp_path):
    # API level: bitwise identity of the one-step unitary for all protocols
    rng = np.random.default_rng(RNG_SEED + 5)
    bitwise = True
    for pid in pr.PROTOCOL_IDS:
        spec = pr.registry_lookup(pid, T=1)
        spec = spec.with_params(**{s: rng.uniform(-PI, PI) for s in spec.symbols})
        k = rng.uniform(-PI, PI, (16, spec.dimension))
        bitwise &= np.array_equal(pr.build_unitary(spec, k),
                                  pr.build_unitary(pr.step_independent_reduction(spec), k))
    # CLI level: byte-identical artifacts
    cfg = {
        "schema": "topowalk/v1", "protocol": "1d-phs", "steps": 1,
        "angles": {"beta": PI / 3},
        "sweep": {"symbol": "alpha", "start": -1.5, "stop": 1.5, "count": 5},
        "grid": 32,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["bands", "--config", str(path), "--out", str(a)]) == 0
    assert cli.main(["bands", "--config", str(path), "--out", str(b),
                     "--step-independent"]) == 0
    byte_equal = a.read_bytes() == b.read_bytes()
    _report(11, bitwise and byte_equal,
            "T=1 output bitwise equal to the dedicated step-independent path"
            " (22 protocols API + CLI artifact)")


def test_criterion_12_cli_determinism(tmp_path):
    cfg = {
        "schema": "topowalk/v1", "protocol": "2d-phs", "steps": 2,
        "angles": {"alpha": PI / 3},
        "sweep": {"symbol": "beta", "start": PI / 12, "stop": 2 * PI / 3, "count": 4},
        "grid": 32,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    blobs = {}
    for cmd, name in (("bands", "b"), ("invariant", "i"), ("classify-gaps", "g")):
        outs = []
        # two workers: the most a 2-CPU host accepts (workers <= the CPUs
        # this process may use)
        for tag, workers in (("1", "1"), ("2", "1"), ("3", "2")):
            out = tmp_path / f"{name}{tag}.out"
            assert cli.main([cmd, "--config", str(path), "--out", str(out),
                             "--workers", workers]) == 0
            outs.append(out.read_bytes())
        blobs[cmd] = outs[0] == outs[1] == outs[2]
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert cli.main(["symmetry", "all", "--out", str(s1)]) == 0
    assert cli.main(["symmetry", "all", "--out", str(s2)]) == 0
    blobs["symmetry"] = s1.read_bytes() == s2.read_bytes()
    _report(12, all(blobs.values()),
            f"byte-identical artifacts across reruns and worker counts: {blobs}")
