"""Gap closings, boundary-state taxonomy, winding and Chern numbers.

Conventions
-----------
* Every two-band quantity is the Bloch split (d0, d) of the compiled plan
  (`spectrum.bloch_entries` of its entries, on an open mesh for the gap
  scan, the flat-band check and the Chern grids).  One driver, `_closings`,
  sets up the gap search for a stack of walks, one protocol at several
  angles and step numbers (`_one_protocol` rejects any other stack), in one
  plan pass: one scan (`_scan`: local minima of |d|, which the Chern
  reduction reuses) feeds one batched Gauss-Newton refine of d(k) = 0 with
  the Jacobian split from the exact dU/dk.  `find_gap_closings` (one walk)
  and `sweep_boundaries` (a chunk of `classify-gaps` sweep values, whose
  flat-band check reads d0 from the same mesh) search the full BZ, since
  they report closings there; `_invariants` (`sweep_invariants`, and
  `winding_number` and `chern_number` for one walk) searches the *minimal*
  momentum torus (see below) of a 2D walk, from the same d that its Chern
  reduction then reads.  1D windings need no mesh (see below).
* Dense meshes (`_mesh_bloch`) are evaluated from the plan's Fourier
  coefficients (`Plan.fourier`), not by the step loop: contracted with the
  phasors of every momentum axis but the first once per call, then summed
  per block (`_blocks`) of about BLOCK_POINTS points of the first axis, whose
  temporaries stay in L2, into just the full-mesh arrays the caller reads.
  Every value is an elementwise sum of products, with no BLAS call, so
  neither the blocks nor the stack of walks change a bit.
* The gap function is g(k) = min(E_+, pi - E_+): bands touch only at
  quasi-energy 0 or pi.
* Dirac-vs-arc discrimination follows the band shape at the closing: a
  closing is a Dirac cone when, along every momentum axis, the gap grows
  linearly (slope >= DIRAC_MIN_SLOPE) and a pure linear fit over the
  FIT_WINDOW leaves a relative RMS residual <= DIRAC_RESIDUAL_REL.  Exact
  cone configurations sit at ~1e-10 relative residual while generic
  (arc-type) touches sit at ~1e-5, so the 1e-6 threshold separates them by
  orders of magnitude on the bundled fixtures.
* Winding numbers use the right-handed frame (e1, e2, A) built on the chiral
  axis A; counterclockwise in (e1, e2) counts +1.  They are exact: the
  in-plane loop z(k) = (e1 + i e2).d(k) is a Laurent polynomial
  sum_{|f| <= F} z_f e^{ifk} read from the plan's Fourier coefficients, and
  its winding over 2 pi is the number of roots of w^F z(w) inside the unit
  circle, minus F (`_windings`: zeros minus poles, as in Verresen, Jones &
  Pollmann, PRL 120, 057001, 2018); a pi-periodic walk winds half that over
  its minimal torus.  A root whose nearest point e^{ik} on the circle has
  |z| <= EPS_GAP is a gap closing at k (a chiral walk's d lies in the plane,
  so |z| = |d|), where the winding is undefined.  The grid does not enter.
* Chern numbers are the degree of n_hat: T^2 -> S^2 over the protocol's
  *minimal* momentum torus (many registered walks are exactly pi-periodic
  per axis; over the full [-pi, pi)^2 square the degree would simply
  repeat), on at least MIN_SCAN_GRID points per axis.  The degree is the
  signed number of preimages of any regular value (Milnor, Topology from the
  Differentiable Viewpoint, 1965), so `_chern` counts the mesh triangles
  whose geodesic image covers one fixed direction p, off every high-symmetry
  direction of d, each by the sign of its orientation: an exact integer, with
  no solid angle.  Each edge's side of p is one 2x2 determinant shared by its
  two triangles, and an exact zero is broken by one fixed infinitesimal move
  of p (Edelsbrunner & Muecke, Simulation of Simplicity, ACM TOG 9, 1990).
  The orientation constant is fixed so the two-band 2D particle-hole walk at
  T=2, alpha=pi/3, beta=pi/4 carries Chern number +1.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BoundaryStateError, DegenerateGridError, InvalidInputError
from .protocols import ProtocolSpec, Shift, registry_lookup
from .spectrum import EPS_GAP, bloch_entries, two_band_plan
from .symmetry import chiral_axis, momentum_axes

EPS_FLAT = 1e-8
FIT_WINDOW = 0.05
DIRAC_MIN_SLOPE = 0.1
DIRAC_RESIDUAL_REL = 1e-6
MERGE_TOL = 1e-6
QUANT_TOL = 0.02  # |raw - n| allowed on an `ok` row: raw is exact; the benchmark's checks read it
HIGH_SYMMETRY_TOL = 1e-6
MIN_SCAN_GRID = 32  # points per axis, at least, of the scan for gap closings
BLOCK_POINTS = 2 ** 14  # mesh points per block of a dense-mesh pass: its temporaries fit in L2
CHERN_ORIENTATION = -1.0  # fixes the reference 2D PHS fixture to +1


def _euler_zyz(a: float, b: float, c: float) -> np.ndarray:
    """The proper rotation Rz(a) Ry(b) Rz(c)."""
    def rz(t):
        return np.array([[np.cos(t), -np.sin(t), 0], [np.sin(t), np.cos(t), 0], [0, 0, 1]])
    ry = np.array([[np.cos(b), 0, np.sin(b)], [0, 1, 0], [-np.sin(b), 0, np.cos(b)]])
    return rz(a) @ ry @ rz(c)


# the frame of the Chern count (`_chern`): irrational Euler angles put the
# counted direction p = CHERN_FRAME^T e_z off every high-symmetry direction of d
CHERN_FRAME = _euler_zyz(np.sqrt(2.0), np.sqrt(3.0) / 2, np.sqrt(0.5))


def wrap_pi(x):
    """x shifted by a multiple of 2 pi into [-pi, pi), elementwise; values in
    range are returned as they are.  Just below -pi, (x + pi) % (2 pi) rounds
    up to 2 pi, hence the second guard."""
    x = np.asarray(x, dtype=float)
    w = (x + np.pi) % (2 * np.pi) - np.pi
    return np.where((x >= -np.pi) & (x < np.pi), x, np.where(w >= np.pi, w - 2 * np.pi, w))


@dataclass(frozen=True)
class GapPoint:
    k: Tuple[float, ...]
    quasi_energy: float  # 0.0 or pi
    residual: float  # |d| at the refined point


@dataclass
class BoundaryClassification:
    kind: str  # dirac_type_one | dirac_type_two | fermi_arc | flat_band | unclassified
    evidence: Dict = field(default_factory=dict)


@dataclass(frozen=True)
class WindingResult:
    w: int
    raw: float


@dataclass(frozen=True)
class ChernResult:
    c: int
    raw: float


def _gauss_newton(plan, pts: np.ndarray, cell):
    """Batched Gauss-Newton on d(k) = 0 from all start points at once: J = dd/dk
    is the Bloch split of the plan's exact dU/dk (d is linear in U), and the step
    -pinv(J) d, least-squares also where J is rank-deficient on closing lines, is
    clipped to one grid cell per axis (`cell`, a scalar or one per axis).  A
    point stops once its step no longer exceeds 1e-15 (1 + |k|), so each
    point's iterates do not depend on the others in the batch; all stop after
    60 steps.  Returns each point's lowest-|d| iterate, d0 and |d|."""
    best, best_d0, best_norm = pts.copy(), np.empty(len(pts)), np.full(len(pts), np.inf)
    done = np.zeros(len(pts), dtype=bool)
    for _ in range(60):
        entries, grads = plan.entries_and_grad(pts)
        d0, d = bloch_entries(*entries)
        r = np.stack(d, axis=-1)
        norm = np.sqrt((r * r).sum(axis=-1))
        better = norm < best_norm
        best[better], best_d0[better], best_norm[better] = pts[better], d0[better], norm[better]
        jac = np.stack([np.stack(bloch_entries(*g)[1], axis=-1) for g in grads], axis=-1)
        step = np.clip(-(np.linalg.pinv(jac, rcond=1e-12) @ r[:, :, None])[:, :, 0], -cell, cell)
        moved = pts + step
        done |= np.all(np.abs(step) <= 1e-15 * (1 + np.abs(moved)), axis=-1)
        if done.all():
            break
        pts = np.where(done[:, None], pts, moved)
    return best, best_d0, best_norm


def _blocks(count: int, row_points: int) -> List[slice]:
    """range(count) in even slices of at least BLOCK_POINTS // row_points rows
    and, where count allows, two points: numpy multiplies complex arrays of
    one element on a path that rounds differently from its vector loop."""
    parts = max(1, count // max(BLOCK_POINTS // row_points, 2 // row_points, 1))
    return [slice(i * count // parts, (i + 1) * count // parts) for i in range(parts)]


def _mesh_rows(freqs, coef, axes, lead_shape):
    """A plan entry's Fourier coefficients (`Plan.fourier`) contracted over
    every momentum axis but the first, on the open mesh of `axes`: per
    first-axis frequency, one complex row lead_shape + (1, n_1, ...).  Each
    axis is a sum of elementwise products, so the rows do not depend on the
    stack of walks."""
    dim, lead = len(axes), len(lead_shape)
    fshape = coef.shape[coef.ndim - dim:]
    coef = np.broadcast_to(coef, lead_shape + (1,) * dim + fshape).reshape(lead_shape + fshape)
    for ax in range(dim - 1, -1, -1):
        # per frequency j of axis ax, the coefficients with that axis turned into the mesh's
        terms = [coef[(slice(None),) * (lead + ax) + (j, None)] for j in range(fshape[ax])]
        if ax == 0:
            return terms
        phasors = np.exp(1j * np.multiply.outer(freqs[ax], axes[ax]))
        phasors = phasors.reshape(phasors.shape + (1,) * (dim - 1 - ax))
        coef = terms[0] * phasors[0]
        for term, p in zip(terms[1:], phasors[1:]):
            coef = coef + term * p


def _first_axis_pairs(freqs, rows, k, dim):
    """Re and Im of the entry sum_j exp(i freqs[j] k_0) rows[j] as lists of
    (column, row) real pairs whose products sum to them, column None for 1.
    A frequency and its negative share their cos and sin columns:
    e^{imk} B_m + e^{-imk} B_-m = cos(mk) (B_m + B_-m) + i sin(mk) (B_m - B_-m)."""
    by = dict(zip(freqs.tolist(), rows))
    re, im = [], []
    for mu in sorted({abs(f) for f in by}, reverse=True):
        plus, minus = by.get(mu), by.get(-mu) if mu else None
        total = plus if minus is None else minus if plus is None else plus + minus
        if not mu:
            re.append((None, np.ascontiguousarray(total.real)))
            im.append((None, np.ascontiguousarray(total.imag)))
            continue
        diff = plus if minus is None else -minus if plus is None else plus - minus
        cos, sin = (f(mu * k).reshape((-1,) + (1,) * (dim - 1)) for f in (np.cos, np.sin))
        re += [(cos, np.ascontiguousarray(total.real)), (sin, -diff.imag)]
        im += [(cos, np.ascontiguousarray(total.imag)), (sin, np.ascontiguousarray(diff.real))]
    return re, im


def _mesh_bloch(plan, axes, shape, d0: bool = False):
    """(d, |d|) of the plan on the open mesh of the momentum `axes`, with d one
    (3, *shape) array, or (d0, |d|) if `d0`: no caller reads both.  `shape`
    is any leading sweep axes of the plan's angles, then the mesh.  The plan's
    Fourier coefficients are contracted over the other momentum axes once
    (`_mesh_rows`); per block of the first axis, each of d0 = Re a and
    d = (-Im c, Re c, -Im a) is a sum of real column-by-row products
    (`_first_axis_pairs`), formed in place in arrays allocated once."""
    dim = len(axes)
    lead = len(shape) - dim
    out, norm = np.empty(shape if d0 else (3,) + shape), np.empty(shape)
    (re_a, im_a), (re_c, im_c) = (
        _first_axis_pairs(freqs[0], _mesh_rows(freqs, coef, axes, shape[:lead]), axes[0], dim)
        for freqs, coef in plan.fourier())
    sums = [[(col, -row) for col, row in im_c], re_c, [(col, -row) for col, row in im_a]]
    row_points = int(np.prod(shape)) // shape[lead]
    blocks = _blocks(shape[lead], row_points)
    buffers = np.empty((4 if d0 else 1, max(b.stop - b.start for b in blocks) * row_points))
    for rows in blocks:
        at = (slice(None),) * lead + (rows,)
        part = shape[:lead] + (rows.stop - rows.start,) + shape[lead + 1:]
        tmp, *d = (b[:int(np.prod(part))].reshape(part) for b in buffers)
        if d0:
            _sum_pairs(out[at], re_a, rows, tmp)
        else:
            d = [out[(i,) + at] for i in range(3)]
        for dest, pairs in zip(d, sums):
            _sum_pairs(dest, pairs, rows, tmp)
        x, y, z = d
        nrm = norm[at]
        np.multiply(x, x, out=nrm)
        nrm += np.multiply(y, y, out=tmp)
        nrm += np.multiply(z, z, out=tmp)
        np.sqrt(nrm, out=nrm)
    return out, norm


def _sum_pairs(dest, pairs, rows, tmp) -> None:
    """dest = the sum, in order, of column[rows] * row over the (column, row)
    pairs, or of row alone where column is None; `tmp` is a work array of dest's
    shape."""
    (column, row), *rest = pairs
    if column is None:
        dest[...] = row
    else:
        np.multiply(column[rows], row, out=dest)
    for column, row in rest:
        dest += row if column is None else np.multiply(column[rows], row, out=tmp)


def _scan(vals, cells):
    """Start points of the gap search: the local minima of |d| (`vals`) over
    its trailing len(cells) mesh axes, kept if plausibly refinable to a
    closing (a touching cone of slope <= 2 per axis stays below ~2 sqrt(dim)
    cell within one grid cell).  Only the points below that threshold are
    compared with their periodic neighbours, by flat index, axis by axis; a
    NaN is never kept.  Returns, in C order, the index rows of the leading
    axes and the momenta -pi + index * cell."""
    dim = len(cells)
    lead = vals.ndim - dim
    flat = np.flatnonzero(vals < 2 * np.sqrt(dim) * cells.max())
    v, stride = vals.ravel(), 1
    for n in reversed(vals.shape[lead:]):
        here, at = v[flat], flat // stride % n
        for edge, step in ((n - 1, stride), (0, -stride)):
            flat = flat[here <= v[np.where(at == edge, flat - (n - 1) * step, flat + step)]]
            here, at = v[flat], flat // stride % n
        stride *= n
    idx = np.stack(np.unravel_index(flat, vals.shape), axis=-1)
    return idx[:, :lead], -np.pi + idx[:, lead:] * cells


def _closings(specs: Sequence[ProtocolSpec], grid_n: int, periods, d0: bool = False):
    """The gap search of the walks `specs`, one protocol at several angles and
    step numbers, from one plan pass: their angles and T are (V, 1, ...)
    arrays against the open mesh of the momentum `periods` at grid_n
    (>= MIN_SCAN_GRID) points per axis.  `_scan` takes the local minima of |d|
    on that mesh, and one `_gauss_newton` solve refines all of them, each at
    its own walk's angles and T.

    Returns d (or d0 if `d0`) and |d| on the mesh (V, grid_n, ...) as
    `_mesh_bloch` gives them, the walk index of each start point, and each
    start's refined k, d0 and |d|."""
    spec, count = specs[0], len(specs)
    dim = spec.dimension
    lead = (count,) + (1,) * dim
    angles = {sym: np.reshape([s.angles[sym] for s in specs], lead) for sym in spec.angles}
    steps = np.reshape([s.T for s in specs], lead)
    plan = two_band_plan(spec, angles=angles, T=steps)
    mesh, norm = _mesh_bloch(plan, momentum_axes(dim, grid_n, periods),
                             (count,) + (grid_n,) * dim, d0)
    cells = np.divide(periods, grid_n)
    rows, starts = _scan(norm, cells)
    which = rows[:, 0]
    per_start = two_band_plan(spec, T=steps.ravel()[which],
                              angles={sym: a.ravel()[which] for sym, a in angles.items()})
    return (mesh, norm, which) + _gauss_newton(per_start, starts, cells)


def _check_grid(grid_n) -> None:
    """InvalidInputError unless grid_n, the points per momentum axis, is an integer >= 2."""
    if isinstance(grid_n, bool) or not isinstance(grid_n, (int, np.integer)) or grid_n < 2:
        raise InvalidInputError(f"grid_n must be an integer >= 2, got {grid_n!r}")


def _gap_points(pts, d0, resid, refine_tol: float) -> List[GapPoint]:
    """The refined points with |d| <= refine_tol as closings at quasi-energy 0
    or pi, sorted, with duplicates (within MERGE_TOL) merged: a point is kept
    unless a kept point at its energy lies within MERGE_TOL on every axis,
    across +-pi too.  The kept points are hashed into wrapped cells of
    2 MERGE_TOL per axis (the last cell up to twice as wide), so each point is
    compared only with those in its own and the adjacent cells."""
    sel = np.flatnonzero(resid <= refine_tol)
    e_plus = np.arccos(np.clip(d0[sel], -1.0, 1.0))
    points = [GapPoint(k=tuple(k), residual=r, quasi_energy=0.0 if e < np.pi / 2 else np.pi)
              for k, r, e in zip(wrap_pi(pts[sel]).tolist(), resid[sel].tolist(), e_plus)]
    points.sort(key=lambda p: (p.quasi_energy,) + p.k)
    ncell = int(2 * np.pi // (2 * MERGE_TOL))
    ks = np.reshape([p.k for p in points], (-1, pts.shape[-1]))
    cells = np.minimum((ks + np.pi) // (2 * MERGE_TOL), ncell - 1).astype(int).tolist()
    merged: List[GapPoint] = []
    kept: Dict[tuple, List[tuple]] = {}
    for p, cell in zip(points, cells):
        near = set(product((p.quasi_energy,), *(((c - 1) % ncell, c, (c + 1) % ncell)
                                                for c in cell)))
        close = [k for key in near for k in kept.get(key, ())]
        if not close or not (np.abs(wrap_pi(np.subtract(p.k, close))).max(axis=-1)
                             < MERGE_TOL).any():
            kept.setdefault((p.quasi_energy,) + tuple(cell), []).append(p.k)
            merged.append(p)
    return merged


def find_gap_closings(spec_or_id, *, angles=None, T=None, grid_n: int = 64,
                      refine_tol: float = EPS_GAP) -> List[GapPoint]:
    """Locate band touchings over the full BZ: coarse scan for local minima of
    |d|, then one batched Gauss-Newton solve of d(k) = 0 from all of them on
    the plan's exact Jacobian (`_closings`); duplicates merged.

    |d| = sin(E_+) vanishes exactly where the bands touch (E in {0, pi}) and,
    unlike min(E, pi - E), it stays fully resolved near a closing: arccos
    loses half the significant digits there.
    """
    spec = registry_lookup(spec_or_id, T=T, angles=angles)
    _check_grid(grid_n)
    if grid_n < MIN_SCAN_GRID:
        raise InvalidInputError(f"grid_n must be >= {MIN_SCAN_GRID} per axis")
    found = _closings([spec], grid_n, [2 * np.pi] * spec.dimension, True)
    return _gap_points(*found[3:], refine_tol)


def _is_high_symmetry_set(momenta: Sequence[Tuple[float, ...]], targets) -> bool:
    for kpt in momenta:
        ok = any(
            all(abs(wrap_pi(x - t)) < HIGH_SYMMETRY_TOL for x, t in zip(kpt, tgt))
            for tgt in targets)
        if not ok:
            return False
    return True


def classify_boundary(spec_or_id, *, angles=None, T=None,
                      gap_points: Optional[List[GapPoint]] = None,
                      grid_n: int = 64) -> List[BoundaryClassification]:
    """Classify the gapless configuration at fixed parameters.

    Returns a flat-band record if the + band is constant over the BZ (at
    grid_n points per axis); otherwise one record per gap closing (by default
    those `find_gap_closings` finds at grid_n, from the same mesh pass as the
    flat-band check: `sweep_boundaries`).  1D Dirac closings are subtyped by
    the complete gapless set: {0, +-pi} -> type one, including +-pi/2 -> type
    two.
    """
    spec = registry_lookup(spec_or_id, T=T, angles=angles)
    _check_grid(grid_n)
    if gap_points is None:
        if grid_n < MIN_SCAN_GRID:
            raise InvalidInputError(f"grid_n must be >= {MIN_SCAN_GRID} per axis")
        return sweep_boundaries([spec], grid_n)[0][1]
    dim = spec.dimension
    d0 = _mesh_bloch(two_band_plan(spec), momentum_axes(dim, grid_n), (grid_n,) * dim, True)[0]
    return _classify(spec, d0, gap_points)


def sweep_boundaries(specs: Sequence[ProtocolSpec], grid_n: int
                     ) -> List[Tuple[List[GapPoint], List[BoundaryClassification]]]:
    """The gap closings and the boundary taxonomy of each walk of `specs`, one
    protocol at several angles and step numbers, as `find_gap_closings` and
    `classify_boundary` give them at max(grid_n, MIN_SCAN_GRID) points per
    axis, from one plan pass over the full BZ (`_closings`), whose d0 also
    serves the flat-band check."""
    if not specs:
        return []
    _one_protocol(specs)
    d0, _, which, pts, pts_d0, resid = _closings(specs, max(grid_n, MIN_SCAN_GRID),
                                                 [2 * np.pi] * specs[0].dimension, True)
    out = []
    for i, spec in enumerate(specs):
        mine = which == i
        points = _gap_points(pts[mine], pts_d0[mine], resid[mine], EPS_GAP)
        out.append((points, _classify(spec, d0[i], points)))
    return out


def _classify(spec: ProtocolSpec, d0, gap_points: List[GapPoint]
              ) -> List[BoundaryClassification]:
    """The taxonomy of `classify_boundary` for one walk, from d0 on a full-BZ
    mesh and its closings; the gap fits along +-each axis of every closing
    come from one pass of one compiled plan."""
    e = np.arccos(np.clip(d0, -1.0, 1.0))
    variation = float(e.max() - e.min())
    if variation > EPS_FLAT and not gap_points:
        return []
    plan = two_band_plan(spec)
    dim = spec.dimension
    if variation <= EPS_FLAT:
        e0 = np.arccos(np.clip(plan.entries(np.zeros((1, dim)))[0].real, -1.0, 1.0))
        return [BoundaryClassification(kind="flat_band",
                                       evidence={"band_variation": variation,
                                                 "energy": float(e0[0])})]

    s = np.linspace(FIT_WINDOW / 20, FIT_WINDOW, 20)
    # the fit momenta k0 + sign s e_axis: (closing, axis, sign, s, momentum)
    offsets = np.eye(dim)[:, None, None, :] * (np.array([[1.0], [-1.0]]) * s)[:, :, None]
    e_fit = np.arccos(np.clip(plan.entries(np.array([p.k for p in gap_points])[:, None, None, None]
                                           + offsets)[0].real, -1.0, 1.0))
    gaps = np.minimum(e_fit, np.pi - e_fit)
    # one-sided linear fits of the gap per (closing, axis, sign): slope and rel residual
    slope = (gaps[..., None, :] @ s[:, None])[..., 0, 0] / (s @ s)
    scale = np.maximum(np.abs(slope) * FIT_WINDOW, 1e-300)
    resid = np.sqrt(np.mean((gaps - slope[..., None] * s) ** 2, axis=-1)) / scale
    slope = np.abs(slope)
    dirac = ((slope.min(axis=-1) >= DIRAC_MIN_SLOPE)
             & (resid.max(axis=-1) <= DIRAC_RESIDUAL_REL)).all(axis=-1)
    gapless_set = [p.k for p in gap_points]
    one = [(0.0,), (np.pi,)]  # a 1D cone is subtyped by the whole gapless set
    two = one + [(np.pi / 2,), (-np.pi / 2,)]
    dirac_kind = ("dirac_type_one" if dim > 1 or _is_high_symmetry_set(gapless_set, one) else
                  "dirac_type_two" if _is_high_symmetry_set(gapless_set, two) else "unclassified")
    return [BoundaryClassification(
        kind=dirac_kind if dirac[i] else "fermi_arc" if slope[i].max() > 0 else "unclassified",
        evidence={"k": p.k, "quasi_energy": p.quasi_energy,
                  "slopes": dict(enumerate(slope[i].tolist())),
                  "linear_fit_rel_residual": dict(enumerate(resid[i].tolist())),
                  "gapless_set": gapless_set}) for i, p in enumerate(gap_points)]


def momentum_period(spec: ProtocolSpec, axis: int) -> float:
    """Minimal p with U(k + p e_axis) = U(k) exactly: pi or 2 pi.

    A shift element contributes a global sign under k -> k + pi e_axis iff its
    two integer phases match mod 2; the walk is pi-periodic iff every element
    does and the signs cancel.
    """
    total = 0
    for el in spec.elements:
        if not isinstance(el, Shift):
            continue
        u, d = el.up[axis], el.down[axis]
        if (u - d) % 2 != 0:
            return 2 * np.pi
        total += u
    return np.pi if total % 2 == 0 else 2 * np.pi


def _plane_basis(A: np.ndarray):
    """Unit e1 and e2 with (e1, e2, A) right-handed, for each axis A (..., 3).
    |e1| is the dot product's root, as `np.linalg.norm` of one vector takes it."""
    v0 = np.where((np.abs(A[..., 2]) < 0.9)[..., None], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    e1 = np.cross(A, v0)
    e1 /= np.sqrt(e1[..., None, :] @ e1[..., :, None])[..., 0]
    return e1, np.cross(A, e1)


def _in_plane_coefficients(plan, A):
    """The Laurent coefficients z_f, f = -F..F, of z(k) = (e1 + i e2).d(k) of
    a stack of 1D walks about their chiral axes A (V, 3) (frames of
    `_plane_basis`), as (V, 2F + 1): of d = (-Im c, Re c, -Im a) with a and c
    from `Plan.fourier`, whose x_f e^{ifk} puts x_f / 2 (Re x) or x_f / 2i
    (Im x) at f and the conjugate at -f.  F, the largest frequency of a or
    c, is an integer for every special-unitary walk."""
    ((fa,), ca), ((fc,), cc) = plan.fourier()
    count = len(A)
    ca, cc = np.broadcast_to(ca, (count, len(fa))), np.broadcast_to(cc, (count, len(fc)))
    F = int(max(np.abs(fa).max(), np.abs(fc).max()))
    e1, e2 = _plane_basis(A)
    ux, uy, uz = (e1 + 1j * e2).T[..., None]
    z = np.zeros((count, 2 * F + 1), dtype=complex)
    for freqs, coef, up, down in ((fc, cc, (uy + 1j * ux) / 2, (uy - 1j * ux) / 2),
                                  (fa, ca, 0.5j * uz, -0.5j * uz)):
        z[:, (F + freqs).astype(int)] += up * coef
        z[:, (F - freqs).astype(int)] += down * coef.conj()
    return z


def _root_count(z):
    """Per row of Laurent coefficients z (V, 2F + 1), f = -F..F, of
    z(k) = sum_f z_f e^{ifk}: the number of roots of w^F z(w) inside the unit
    circle, and the least k at which |z| <= EPS_GAP (-pi if at every k), or
    inf.  An exactly zero coefficient at the low (high) end is a root at 0
    (at infinity); the other roots of each pattern of such zeros are the
    eigenvalues of one batched companion matrix, and |z| is checked at the
    point e^{ik} of the circle nearest each of them."""
    count, degree = z.shape[0], z.shape[1] - 1
    nonzero = z != 0
    low = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), degree + 1)
    high = degree - nonzero[:, ::-1].argmax(axis=1)
    inside, closes = low.copy(), np.full(count, np.inf)
    for lo, hi in set(zip(low.tolist(), high.tolist())):
        mine = np.flatnonzero((low == lo) & (high == hi))
        if hi <= lo:  # |z| is constant on the circle
            closes[mine] = np.where(np.abs(z[mine, min(lo, degree)]) <= EPS_GAP, -np.pi, np.inf)
            continue
        companion = np.zeros((len(mine), hi - lo, hi - lo), dtype=complex)
        companion[:, 1:, :-1] = np.eye(hi - lo - 1)
        companion[:, :, -1] = -z[mine, lo:hi] / z[mine, hi, None]
        roots = np.linalg.eigvals(companion)
        inside[mine] += (np.abs(roots) < 1).sum(axis=1)
        k = np.angle(roots)
        on_circle = np.exp(1j * np.multiply.outer(k, np.arange(degree + 1) - degree // 2))
        gap = np.abs((on_circle * z[mine, None, :]).sum(axis=-1))
        closes[mine] = np.where(gap <= EPS_GAP, wrap_pi(k), np.inf).min(axis=1)
    return inside, closes


def _windings(specs: Sequence[ProtocolSpec]) -> list:
    """The 1D branch of `_invariants` (see the module docstring): per walk,
    (n, float(n)) from the roots of its in-plane Laurent polynomial, or the
    BoundaryStateError that says why it has none.  A walk with too few
    gap-open momenta to fit its chiral axis has no winding either."""
    results: list = [None] * len(specs)
    axes = {}
    for i, spec in enumerate(specs):
        try:
            axes[i] = chiral_axis(spec)
        except DegenerateGridError as err:
            results[i] = BoundaryStateError(f"winding undefined: {err}")
    todo = list(axes)
    if not todo:
        return results
    angles = {sym: np.array([specs[i].angles[sym] for i in todo]) for sym in specs[0].angles}
    plan = two_band_plan(specs[0], angles=angles, T=np.array([specs[i].T for i in todo]))
    z = _in_plane_coefficients(plan, np.array(list(axes.values())))
    inside, closes = _root_count(z)
    halves = 2 if momentum_period(specs[0], 0) == np.pi else 1
    windings = ((inside - z.shape[1] // 2) // halves).tolist()
    for i, n, k in zip(todo, windings, closes.tolist()):
        results[i] = (n, float(n)) if k == np.inf else BoundaryStateError(
            f"winding undefined: the gap closes at k = {[round(k, 6)]}")
    return results


def _corners(d, walk, i, s, offsets):
    """d (3, V, N, N) at the mesh points (i + di, s + ds), cyclically, of the
    walks `walk`, one (3, K) array per offset (di, ds)."""
    n = d.shape[-1]
    return [d[:, walk, (i + di) % n, (s + ds) % n] for di, ds in offsets]


def _chern(d, norm):
    """(raw Chern number, min |d|) of each walk of d (3, V, N, N), with |d|
    `norm`, over its trailing two axes, a periodic mesh: CHERN_ORIENTATION
    times the signed count of the mesh triangles (r, s) (r+1, s) (r+1, s+1)
    and (r, s) (r+1, s+1) (r, s+1) whose geodesic image under n_hat covers
    the direction p = CHERN_FRAME^T e_z, or NaN where n_hat is exactly
    antipodal across a mesh edge.

    In the frame (x', y') = CHERN_FRAME[:2] d, every row, column and diagonal
    edge a -> b has det(a, b, p) = x'_a y'_b - y'_a x'_b, formed once and
    shared by its two triangles, so their signs agree; an exact 0 counts as
    positive in that stored direction, and its endpoints are looked at in 3D.
    A triangle whose three edge signs agree covers p or -p; det(a, b, c) of
    the same sign says p.  Per block of rows, one reused tile holds (x', y')
    on rows of w = N + 1 (the block's rows, the next one, cyclically, and one
    of padding; column N wraps column 0), so the corners (r, s), (r+1, s),
    (r+1, s+1), (r, s+1) are contiguous slices at offsets 0, w, w + 1 and 1."""
    count, n, w = len(norm), norm.shape[-1], norm.shape[-1] + 1
    blocks = _blocks(n, w * count)
    size = max(b.stop - b.start for b in blocks)
    tile = np.zeros((2, count, size + 2, w))
    x, y = tile.reshape(2, count, -1)
    dets, tmp = np.empty((3, count, (size + 1) * w)), np.empty(count * (size + 1) * w)
    degree, antipodal = np.zeros(count, dtype=np.int64), np.zeros(count, dtype=bool)
    for rows in blocks:
        r, below = rows.stop - rows.start, rows.stop % n
        for frame, dest in zip(CHERN_FRAME[:2], tile):
            for at, src in ((slice(0, r), d[:, :, rows]), (r, d[:, :, below])):
                out = dest[:, at, :n]
                part = tmp[:out.size].reshape(out.shape)
                np.multiply(src[0], frame[0], out=out)
                out += np.multiply(src[1], frame[1], out=part)
                out += np.multiply(src[2], frame[2], out=part)
        tile[..., :r + 1, n] = tile[..., :r + 1, 0]
        length = r * w
        formed = (length + 1, length + w, length)  # row, column, diagonal edges
        for det, off, m in zip(dets, (w, 1, w + 1), formed):
            np.multiply(x[:, :m], y[:, off:off + m], out=det[:, :m])
            det[:, :m] -= np.multiply(y[:, :m], x[:, off:off + m],
                                      out=tmp[:count * m].reshape(count, m))
            walk, j = np.divmod(np.flatnonzero(det[:, :length] == 0), length)
            walk, j = walk[j % w < n], j[j % w < n]
            if walk.size:
                a, b = _corners(d, walk, rows.start + j // w, j % w, ((0, 0), divmod(off, w)))
                flip = (np.cross(a, b, axis=0) == 0).all(axis=0) & ((a * b).sum(axis=0) < 0)
                antipodal[walk[flip]] = True
        rp, cp, dp = (det[:, :m] >= 0 for det, m in zip(dets, formed))  # an exact 0 is positive
        for agree, up, corners in (
                ((rp[:, :length] == cp[:, w:]) & (rp[:, :length] != dp), rp, ((1, 0), (1, 1))),
                ((dp != rp[:, 1:]) & (dp != cp[:, :length]), dp, ((1, 1), (0, 1)))):
            agree.reshape(count, r, w)[..., n] = False
            walk, j = np.divmod(np.flatnonzero(agree), length)
            if walk.size:
                a, b, c = _corners(d, walk, rows.start + j // w, j % w, ((0, 0),) + corners)
                sign = np.where(up[walk, j], 1, -1)
                covers = np.sign((a * np.cross(b, c, axis=0)).sum(axis=0)) == sign
                np.add.at(degree, walk[covers], sign[covers])
    raw = CHERN_ORIENTATION * degree + 0.0  # + 0.0: a count of 0 gives 0.0, not -0.0
    raw[antipodal] = np.nan
    return raw, norm.min(axis=(-2, -1))


def _quantized(what: str, raw: float, margin: float) -> int:
    """The integer raw; BoundaryStateError if the invariant `what` is
    undefined: d came within EPS_GAP of the origin (`margin`, its least
    distance), or raw is NaN (`_chern`: n_hat antipodal across a mesh edge)."""
    if margin <= EPS_GAP:
        raise BoundaryStateError(f"{what} undefined: d passes the origin (min |d| = {margin:.2e})")
    if raw != raw:
        raise BoundaryStateError(f"{what} undefined: n_hat is antipodal across a mesh edge")
    return int(raw)


def winding_number(spec_or_id, *, angles=None, T=None, grid_n: int = 256) -> WindingResult:
    """Winding of the in-plane Bloch vector around the origin (1D chiral
    walks), counted exactly from the roots of its Fourier polynomial; grid_n
    is checked but does not change it."""
    return WindingResult(*_one_walk("winding_number", 1, spec_or_id, angles, T, grid_n))


def chern_number(spec_or_id, *, angles=None, T=None, grid_n: int = 64) -> ChernResult:
    """Degree of n_hat over the minimal 2D momentum torus (`_chern`: the
    signed mesh triangles covering one direction), on at least MIN_SCAN_GRID
    points per axis."""
    return ChernResult(*_one_walk("chern_number", 2, spec_or_id, angles, T, grid_n))


def _one_walk(name: str, dim: int, spec_or_id, angles, T, grid_n) -> Tuple[int, float]:
    """(n, raw) of the one walk of the `dim`-D call `name`, or its error raised."""
    spec = registry_lookup(spec_or_id, T=T, angles=angles)
    if spec.dimension != dim:
        raise InvalidInputError(f"{name} needs a {dim}D protocol")
    (result,) = _invariants([spec], grid_n)
    if isinstance(result, BoundaryStateError):
        raise result
    return result


def sweep_invariants(specs: Sequence[ProtocolSpec],
                     grid_n: int) -> List[Optional[Tuple[int, float]]]:
    """The winding (1D) or Chern (2D) number of each walk of `specs`, one
    protocol at several angles and step numbers, in one pass: (n, raw) per
    walk, or None where its gap closes or the invariant is undefined."""
    return [None if isinstance(r, BoundaryStateError) else r for r in _invariants(specs, grid_n)]


def _one_protocol(specs: Sequence[ProtocolSpec]) -> None:
    """InvalidInputError unless the walks `specs` differ only in T and the
    values of their angles: a stack is compiled as the first walk's protocol."""
    def protocol(s):
        return s.id, s.dimension, s.elements, s.doubled, s.angles.keys()

    first = protocol(specs[0])
    for spec in specs[1:]:
        if protocol(spec) != first:
            raise InvalidInputError(f"a stack of walks is one protocol at several angles and"
                                    f" step numbers; {spec.id!r} differs from {specs[0].id!r}")


def _invariants(specs: Sequence[ProtocolSpec], grid_n: int) -> list:
    """The one invariant route: per walk, (n, raw) or the BoundaryStateError
    that says why it has none.  1D walks count the roots of their in-plane
    Fourier polynomial (`_windings`), exactly and with no mesh; grid_n is
    still checked.  2D walks run the gap search (`_closings`) on the open mesh
    of the minimal momentum torus at max(grid_n, MIN_SCAN_GRID) points per
    axis, so a closing between mesh points is refined, not hidden by the
    degree (an integer on any mesh), and no coarser mesh is counted; the walks
    with no candidate refined to |d| <= EPS_GAP reduce the same d (`_chern`)
    to `_quantized`."""
    _check_grid(grid_n)
    if not specs:
        return []
    _one_protocol(specs)
    dim = specs[0].dimension
    if dim not in (1, 2):
        raise InvalidInputError("invariants are computed for 1D (winding) and 2D (Chern) only")
    if dim == 1:
        return _windings(specs)
    periods = [momentum_period(specs[0], ax) for ax in range(dim)]
    d, norm, which, pts, _, resid = _closings(specs, max(grid_n, MIN_SCAN_GRID), periods)
    results: list = [None] * len(specs)
    closes = np.flatnonzero(resid <= EPS_GAP)[::-1]
    for i, j in dict(zip(which[closes].tolist(), closes.tolist())).items():  # each walk's first
        results[i] = BoundaryStateError(
            f"Chern number undefined: the gap closes at k = {wrap_pi(pts[j]).round(6).tolist()}")
    todo = [i for i, r in enumerate(results) if r is None]
    if not todo:
        return results
    if len(todo) < len(specs):
        d, norm = d[:, todo], norm[todo]
    raw, margin = _chern(d, norm)
    for i, r, m in zip(todo, raw.tolist(), margin.tolist()):
        try:
            results[i] = (_quantized("Chern number", r, m), r)
        except BoundaryStateError as err:
            results[i] = err
    return results
