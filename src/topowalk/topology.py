"""Gap closings, boundary-state taxonomy, winding and Chern numbers.

Conventions
-----------
* Every two-band quantity is the Bloch split (d0, d) of the compiled plan
  (`spectrum.bloch_entries` of its entries, on an open mesh for the gap
  scan and the Chern grids).  A stack of walks is one protocol at its
  effective angles T theta, 1-D arrays along the stack into which the entry
  points fold T once (`protocols.stacked_params`); a one-walk call is a
  stack of one.  Its one plan and Fourier terms (`_stack`) feed every pass.
  One function, `_closings`, scans a stack on `scan_grid` points per axis,
  the one grid rule, for local minima of |d| (`_scan`; the Chern reduction
  reuses d), which one batched Gauss-Newton solve refines (`_gauss_newton`).
  `find_gap_closings`, `classify_boundary` (unless given its closings) and
  `sweep_boundaries` search the full BZ, dropping d before the refine;
  `_invariants` (behind `sweep_invariants`, `winding_number` and
  `chern_number`) searches the *minimal* momentum torus (see below) of a 2D
  walk, from the same d that its Chern reduction then reads.  Flat bands
  (`_flat_bands`) and 1D windings (see below) need no mesh.
* The dense mesh (`_mesh_bloch`, called by `_closings` alone) is evaluated
  from the plan's Fourier coefficients (`Plan.fourier`), not by the step
  loop, and in the frame of the Chern count (CHERN_FRAME d, turned once on
  the coefficients): contracted elementwise with the phasors of every
  momentum axis but the first, then over the first by one real matrix
  product per component of d and walk, written into the full-mesh d.  Each
  walk's product has one shape whatever the stack, so the stack changes no
  bit; |d| and the Chern tile are formed per block (`_blocks`) of about
  BLOCK_POINTS points, elementwise, so the blocks change none either.
* The gap function is g(k) = min(E_+, pi - E_+): bands touch only at
  quasi-energy 0 or pi.
* Dirac-vs-arc discrimination follows the band shape at the closing: a
  closing is a Dirac cone when, along every momentum axis, the gap grows
  linearly (slope >= DIRAC_MIN_SLOPE) and a pure linear fit over the
  FIT_WINDOW leaves a relative RMS residual <= DIRAC_RESIDUAL_REL.  Exact
  cone configurations sit at ~1e-10 relative residual while generic
  (arc-type) touches sit at ~1e-5, so the 1e-6 threshold separates them by
  orders of magnitude on the bundled fixtures.
* Winding numbers use the right-handed frame (e1, e2, A) on the chiral axis A
  (`chiral_axes`, smooth in the angles); counterclockwise counts +1.  They are exact: the
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
from functools import lru_cache
from itertools import product
from numbers import Real
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BoundaryStateError, InvalidInputError
from .protocols import ProtocolSpec, Shift, _frozen, _integer, registry_lookup, stacked_params
from .spectrum import EPS_GAP, bloch_entries, two_band_plan
from .symmetry import chiral_axes, momentum_axes

EPS_FLAT = 1e-8
FIT_WINDOW = 0.05
DIRAC_MIN_SLOPE = 0.1
DIRAC_RESIDUAL_REL = 1e-6
MERGE_TOL = 1e-6
QUANT_TOL = 0.02  # |raw - n| allowed on an `ok` row: raw is exact; the benchmark's checks read it
HIGH_SYMMETRY_TOL = 1e-6
MIN_SCAN_GRID = 32  # points per axis, at least, of the scan for gap closings
BLOCK_POINTS = 2 ** 14  # mesh points per block of |d| and of the Chern tile: temporaries fit in L2
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


def _gauss_newton(plan, which, pts: np.ndarray, cell):
    """Batched Gauss-Newton on d(k) = 0 from all start points at once, each on
    its walk `which` of the stack plan: J = dd/dk is the Bloch split of the
    plan's exact dU/dk (d is linear in U), and the step -pinv(J) d,
    least-squares also where J is rank-deficient on closing lines, is clipped
    to one grid cell per axis (`cell`, a scalar or one per axis).  A point
    stops once its step no longer exceeds 1e-15 (1 + |k|), so each point's
    iterates do not depend on the others in the batch; all stop after 60
    steps.  Returns `which` and each point's lowest-|d| iterate, d0 and |d|."""
    plan = plan.select(which)
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
    return which, best, best_d0, best_norm


def _blocks(count: int, row_points: int) -> List[slice]:
    """range(count) in even slices of at least BLOCK_POINTS // row_points rows,
    and at least one."""
    parts = max(1, count // max(BLOCK_POINTS // row_points, 1))
    return [slice(i * count // parts, (i + 1) * count // parts) for i in range(parts)]


def _mesh_rows(freqs, coef, axes, lead_shape):
    """A plan entry's Fourier coefficients (`Plan.fourier`, lead_shape + (F_0,
    ...)) contracted over every momentum axis but the first, on the open mesh
    of `axes`: one complex array lead_shape + (F_0, n_1, ...), a row per
    first-axis frequency.  Each axis is a sum of elementwise products, so the
    rows do not depend on the stack of walks."""
    dim, lead = len(axes), len(lead_shape)
    fshape = coef.shape[coef.ndim - dim:]
    for ax in range(dim - 1, 0, -1):
        # per frequency j of axis ax, the coefficients with that axis turned into the mesh's
        terms = [coef[(slice(None),) * (lead + ax) + (j, None)] for j in range(fshape[ax])]
        phasors = np.exp(1j * np.multiply.outer(freqs[ax], axes[ax]))
        phasors = phasors.reshape(phasors.shape + (1,) * (dim - 1 - ax))
        coef = terms[0] * phasors[0]
        for term, p in zip(terms[1:], phasors[1:]):
            coef = coef + term * p
    return coef


def _mesh_bloch(terms, axes, shape):
    """(d, |d|) of a plan's Fourier `terms` on the open mesh of the momentum
    `axes`, with d one (3, *shape) array in the frame of the Chern count:
    R = CHERN_FRAME times d = (-Im c, Re c, -Im a).  `shape` is the plan's
    walks, (V,) or none, then the mesh.  The coefficients are contracted
    over the other momentum axes once (`_mesh_rows`), into rows per
    first-axis frequency f.  Component i of R d is Re(u_i c + v_i a), with
    u_i = R_i1 + i R_i0 and v_i = i R_i2, so its rows W are the entries' rows
    scaled once, and Re(e^{ifk} W) = cos(fk) Re W - sin(fk) Im W.  Per walk,
    the first axis is then one real matrix product: the (n_0, 2F) [cos | sin]
    columns times the (2F, M) rows [Re W; -Im W].  Its shape does not depend
    on the stack, so neither do its bits.  |d| is formed per block of rows
    (`_blocks`)."""
    dim = len(axes)
    lead = len(shape) - dim
    walks, n0, m = shape[:lead], shape[lead], int(np.prod(shape[lead + 1:]))
    (fa, ra), (fc, rc) = ((freqs[0], _mesh_rows(freqs, coef, axes, walks))
                          for freqs, coef in terms)
    phase = np.multiply.outer(axes[0], np.concatenate([fa, fc]))
    columns = np.concatenate([np.cos(phase), np.sin(phase)], axis=1)
    d, norm = np.empty((3,) + shape), np.empty(shape)
    for dest, u, v in zip(d, CHERN_FRAME[:, 1] + 1j * CHERN_FRAME[:, 0], 1j * CHERN_FRAME[:, 2]):
        w = np.concatenate([v * ra, u * rc], axis=lead).reshape(walks + (-1, m))
        np.matmul(columns, np.concatenate([w.real, -w.imag], axis=lead),
                  out=dest.reshape(walks + (n0, m)))
    row_points = int(np.prod(shape)) // n0
    blocks = _blocks(n0, row_points)
    buffer = np.empty(max(b.stop - b.start for b in blocks) * row_points)
    for rows in blocks:
        at = (slice(None),) * lead + (rows,)
        part = shape[:lead] + (rows.stop - rows.start,) + shape[lead + 1:]
        tmp = buffer[:int(np.prod(part))].reshape(part)
        x, y, z = (d[(i,) + at] for i in range(3))
        nrm = norm[at]
        np.multiply(x, x, out=nrm)
        nrm += np.multiply(y, y, out=tmp)
        nrm += np.multiply(z, z, out=tmp)
        np.sqrt(nrm, out=nrm)
    return d, norm


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


def _stack(spec: ProtocolSpec, angles):
    """The one plan of a stack of walks of `spec`, compiled at its effective
    angles (`stacked_params`, so T=1), and its Fourier terms, expanded once,
    walks first (a walk with no coin has no angles: it is a stack of one)."""
    plan = two_band_plan(spec, angles=angles, T=1)
    return plan, [(f, c.reshape((-1,) + c.shape[c.ndim - len(f):])) for f, c in plan.fourier()]


def _closings(terms, grid_n: int, periods):
    """The gap search's scan of a stack's Fourier `terms` (`_stack`): one pass
    on the open mesh of the momentum `periods` at scan_grid(grid_n) points
    per axis (`_mesh_bloch`, the only dense mesh), and its local minima of
    |d| (`_scan`).  Returns d and |d| on the mesh, then the walk and momentum
    of each start and the grid cells for `_gauss_newton`; a caller that does
    not read d and |d| slices them off, so the refine does not keep them."""
    grid_n = scan_grid(grid_n)
    d, norm = _mesh_bloch(terms, momentum_axes(len(periods), grid_n, periods),
                          (len(terms[0][1]),) + (grid_n,) * len(periods))
    cells = np.divide(periods, grid_n)
    rows, starts = _scan(norm, cells)
    return d, norm, rows[:, 0], starts, cells


def scan_grid(grid_n) -> int:
    """grid_n, the points per momentum axis asked of a gap search, raised to
    MIN_SCAN_GRID; InvalidInputError unless it is an integer >= 2."""
    return max(_integer("grid_n", grid_n, 2), MIN_SCAN_GRID)


def _gap_points(which, pts, d0, resid, count: int, refine_tol: float) -> List[List[GapPoint]]:
    """Per walk 0 .. count - 1, its refined points (those of `which` == the
    walk) with |d| <= refine_tol as closings at quasi-energy 0 or pi, sorted,
    with duplicates (within MERGE_TOL) merged: a point is kept unless a kept
    point of its walk at its energy lies within MERGE_TOL on every axis,
    across +-pi too.  One selection, wrap and energy pass runs over all the
    starts; the kept points are hashed by walk, energy and wrapped cells of
    2 MERGE_TOL per axis (the last cell up to twice as wide), so each point is
    compared only with those in its own and the adjacent cells."""
    sel = np.flatnonzero(resid <= refine_tol)
    e_plus = np.arccos(np.clip(d0[sel], -1.0, 1.0))
    points = sorted(((w, GapPoint(k=tuple(k), residual=r,
                                  quasi_energy=0.0 if e < np.pi / 2 else np.pi))
                     for w, k, r, e in zip(which[sel].tolist(), wrap_pi(pts[sel]).tolist(),
                                           resid[sel].tolist(), e_plus)),
                    key=lambda wp: (wp[0], wp[1].quasi_energy) + wp[1].k)
    ncell = int(2 * np.pi // (2 * MERGE_TOL))
    ks = np.reshape([p.k for _, p in points], (-1, pts.shape[-1]))
    cells = np.minimum((ks + np.pi) // (2 * MERGE_TOL), ncell - 1).astype(int).tolist()
    merged: List[List[GapPoint]] = [[] for _ in range(count)]
    kept: Dict[tuple, List[tuple]] = {}
    for (w, p), cell in zip(points, cells):
        near = set(product((w,), (p.quasi_energy,), *(((c - 1) % ncell, c, (c + 1) % ncell)
                                                      for c in cell)))
        close = [k for key in near for k in kept.get(key, ())]
        if not close or not (np.abs(wrap_pi(np.subtract(p.k, close))).max(axis=-1)
                             < MERGE_TOL).any():
            kept.setdefault((w, p.quasi_energy) + tuple(cell), []).append(p.k)
            merged[w].append(p)
    return merged


def find_gap_closings(spec_or_id, *, angles=None, T=None, grid_n: int = 64,
                      refine_tol: float = EPS_GAP) -> List[GapPoint]:
    """Locate band touchings over the full BZ: a scan of at least
    MIN_SCAN_GRID points per axis for local minima of |d|, then one batched
    Gauss-Newton solve of d(k) = 0 from all of them on the plan's exact
    Jacobian (`_closings`); duplicates merged.  refine_tol must be >= 0.

    |d| = sin(E_+) vanishes exactly where the bands touch (E in {0, pi}) and,
    unlike min(E, pi - E), it stays fully resolved near a closing: arccos
    loses half the significant digits there.
    """
    if isinstance(refine_tol, bool) or not isinstance(refine_tol, Real) or not refine_tol >= 0:
        raise InvalidInputError(f"refine_tol must be a number >= 0, got {refine_tol!r}")
    spec = registry_lookup(spec_or_id, T=T, angles=angles)
    plan, terms = _stack(spec, stacked_params(spec))
    found = _gauss_newton(plan, *_closings(terms, grid_n, [2 * np.pi] * spec.dimension)[2:])
    return _gap_points(*found, 1, refine_tol)[0]


def _is_high_symmetry_set(momenta: Sequence[Tuple[float, ...]], targets) -> bool:
    return all(any(all(abs(wrap_pi(x - t)) < HIGH_SYMMETRY_TOL for x, t in zip(kpt, tgt))
                   for tgt in targets) for kpt in momenta)


def classify_boundary(spec_or_id, *, angles=None, T=None,
                      gap_points: Optional[List[GapPoint]] = None,
                      grid_n: int = 64) -> List[BoundaryClassification]:
    """Classify the gapless configuration at fixed parameters.

    Returns a flat-band record if the + band is constant over the BZ
    (`_flat_bands`); otherwise one record per gap closing: by default those
    `find_gap_closings` finds; given `gap_points`, no search runs and grid_n
    is only checked.  1D Dirac closings are subtyped by the complete gapless
    set: {0, +-pi} -> type one, including +-pi/2 -> type two.
    """
    spec = registry_lookup(spec_or_id, T=T, angles=angles)
    if gap_points is None:
        return sweep_boundaries(spec, grid_n)[0][1]
    scan_grid(grid_n)
    points = [_given_points(gap_points, spec.dimension)]
    return _classify(*_stack(spec, stacked_params(spec)), points)[0]


def _given_points(gap_points, dim: int) -> List[GapPoint]:
    """The closings given to `classify_boundary`; InvalidInputError unless
    they are a list of GapPoint, each with a k of `dim` finite real numbers."""
    if not isinstance(gap_points, (list, tuple)):
        raise InvalidInputError(f"gap_points must be a list of GapPoint, got {gap_points!r}")
    for p in gap_points:
        if not (isinstance(p, GapPoint) and isinstance(p.k, (tuple, list, np.ndarray))
                and len(p.k) == dim and all(isinstance(x, Real) and not isinstance(x, bool)
                                            and np.isfinite(x) for x in p.k)):
            raise InvalidInputError(f"each gap point must be a GapPoint whose k holds {dim}"
                                    f" finite real numbers, got {p!r}")
    return list(gap_points)


def sweep_boundaries(spec_or_id, grid_n: int, *, angles=None, T=None
                     ) -> List[Tuple[List[GapPoint], List[BoundaryClassification]]]:
    """The gap closings and the boundary taxonomy of each walk of the stack
    (`angles`, `T`: scalars or 1-D arrays, `stacked_params`), as
    `find_gap_closings` and `classify_boundary` give them, from one plan
    pass over the full BZ (`_closings`, at least MIN_SCAN_GRID points per
    axis); grid_n is checked first."""
    scan_grid(grid_n)
    spec = registry_lookup(spec_or_id)
    plan, terms = _stack(spec, stacked_params(spec, angles, T))
    if not len(terms[0][1]):
        return []
    found = _gauss_newton(plan, *_closings(terms, grid_n, [2 * np.pi] * spec.dimension)[2:])
    points = _gap_points(*found, len(terms[0][1]), EPS_GAP)
    return list(zip(points, _classify(plan, terms, points)))


@lru_cache(maxsize=64)
def _mirrored(freqs: tuple):
    """For a's frequencies per axis `freqs`, the grid of per axis their union
    with their negatives and 0, whose C order reversed sends f to -f: the flat
    index of f = 0, its middle, and of each of a's."""
    union = [sorted({0.0, *f, *(-x for x in f)}) for f in freqs]
    shape = [len(u) for u in union]
    return int(np.prod(shape)) // 2, _frozen(np.ravel_multi_index(
        np.ix_(*([u.index(x) for x in f] for u, f in zip(union, freqs))), shape).ravel())


def _flat_bands(terms):
    """Per walk of a stack's Fourier `terms`, a bound on the + band's energy
    variation, arccos(max(b_0 - S, -1)) - arccos(min(b_0 + S, 1)), and its
    energy arccos(b_0), from the Fourier coefficients b_f =
    (A_f + conj A_-f) / 2 of d0 = Re a (A_f: a's, 0 where a lacks f), within
    S = sum_{f != 0} |b_f| (2 |b_f| per pair +-f, `_mirrored`) of b_0."""
    (freqs, coef), _ = terms
    half, at = _mirrored(tuple(tuple(f.tolist()) for f in freqs))
    a = np.zeros((len(coef), 2 * half + 1), dtype=complex)
    a[:, at] = coef.reshape(-1, at.size)
    b0, spread = a[:, half].real, np.abs(a[:, :half] + a[:, :half:-1].conj()).sum(axis=1)
    bound = np.arccos(np.maximum(b0 - spread, -1.0)) - np.arccos(np.minimum(b0 + spread, 1.0))
    return list(zip(bound.tolist(), np.arccos(np.clip(b0, -1.0, 1.0)).tolist()))


def _classify(plan, terms, gap_points: List[List[GapPoint]]
              ) -> List[List[BoundaryClassification]]:
    """The taxonomy of `classify_boundary` for each walk of a stack (`_stack`),
    from its closings: one flat-band pass over the stack (`_flat_bands`),
    then the gap fits along +-each axis of every closing of every walk that
    is not flat from one pass of the plan's coins per closing (`Plan.select`)."""
    out: List[List[BoundaryClassification]] = [
        [BoundaryClassification(kind="flat_band", evidence={"band_variation": v, "energy": e})]
        if v <= EPS_FLAT else [] for v, e in _flat_bands(terms)]
    dim = plan.spec.dimension
    fit = [i for i, pts in enumerate(gap_points) if pts and not out[i]]
    if not fit:
        return out
    closings = [(i, p) for i in fit for p in gap_points[i]]
    s = np.linspace(FIT_WINDOW / 20, FIT_WINDOW, 20)
    # the fit momenta k0 + sign s e_axis: (closing, axis, sign, s, momentum)
    offsets = np.eye(dim)[:, None, None, :] * (np.array([[1.0], [-1.0]]) * s)[:, :, None]
    plan = plan.select([i for i, _ in closings], 4)
    e_fit = np.arccos(np.clip(plan.entries(np.array([p.k for _, p in closings])[:, None, None, None]
                                           + offsets)[0].real, -1.0, 1.0))
    gaps = np.minimum(e_fit, np.pi - e_fit)
    # one-sided linear fits of the gap per (closing, axis, sign): slope and rel residual
    slope = (gaps[..., None, :] @ s[:, None])[..., 0, 0] / (s @ s)
    scale = np.maximum(np.abs(slope) * FIT_WINDOW, 1e-300)
    resid = np.sqrt(np.mean((gaps - slope[..., None] * s) ** 2, axis=-1)) / scale
    slope = np.abs(slope)
    dirac = ((slope.min(axis=-1) >= DIRAC_MIN_SLOPE)
             & (resid.max(axis=-1) <= DIRAC_RESIDUAL_REL)).all(axis=-1).tolist()
    # per closing, in the order of `closings`: (Dirac cone, any slope, slopes, residuals)
    fits = zip(dirac, (slope.max(axis=(-2, -1)) > 0).tolist(), slope.tolist(), resid.tolist())
    one = [(0.0,), (np.pi,)]  # a 1D cone is subtyped by the whole gapless set
    two = one + [(np.pi / 2,), (-np.pi / 2,)]
    for i in fit:
        gapless_set = [p.k for p in gap_points[i]]
        dirac_kind = ("dirac_type_one" if dim > 1 or _is_high_symmetry_set(gapless_set, one) else
                      "dirac_type_two" if _is_high_symmetry_set(gapless_set, two) else
                      "unclassified")
        out[i] = [BoundaryClassification(
            kind=dirac_kind if cone else "fermi_arc" if sloped else "unclassified",
            evidence={"k": p.k, "quasi_energy": p.quasi_energy,
                      "slopes": dict(enumerate(slopes)),
                      "linear_fit_rel_residual": dict(enumerate(resids)),
                      "gapless_set": gapless_set})
            for p, (cone, sloped, slopes, resids) in zip(gap_points[i], fits)]
    return out


def momentum_period(spec: ProtocolSpec, axis: int) -> float:
    """Minimal p with U(k + p e_axis) = U(k) exactly: pi or 2 pi.

    A shift element contributes a global sign under k -> k + pi e_axis iff its
    two integer phases match mod 2; the walk is pi-periodic iff every element
    does and the signs cancel.
    """
    phases = [(el.up[axis], el.down[axis]) for el in spec.elements if isinstance(el, Shift)]
    odd = any((u - d) % 2 for u, d in phases) or sum(u for u, _ in phases) % 2
    return 2 * np.pi if odd else np.pi


def _plane_basis(A: np.ndarray):
    """Unit e1 and e2 with (e1, e2, A) right-handed, for each axis A (..., 3).
    |e1| is the dot product's root, as `np.linalg.norm` of one vector takes it."""
    v0 = np.where((np.abs(A[..., 2]) < 0.9)[..., None], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    e1 = np.cross(A, v0)
    e1 /= np.sqrt(e1[..., None, :] @ e1[..., :, None])[..., 0]
    return e1, np.cross(A, e1)


def _in_plane_coefficients(terms, A):
    """The Laurent coefficients z_f, f = -F..F, of z(k) = (e1 + i e2).d(k) of
    a stack of 1D walks about their chiral axes A (V, 3) (frames of
    `_plane_basis`), as (V, 2F + 1): of d = (-Im c, Re c, -Im a) with a and c
    from the Fourier `terms` of their plan, whose x_f e^{ifk} puts x_f / 2
    (Re x) or x_f / 2i (Im x) at f and the conjugate at -f.  F, the largest
    frequency of a or c, is an integer for every special-unitary walk."""
    ((fa,), ca), ((fc,), cc) = terms
    F = int(max(np.abs(fa).max(), np.abs(fc).max()))
    e1, e2 = _plane_basis(A)
    ux, uy, uz = (e1 + 1j * e2).T[..., None]
    z = np.zeros((len(A), 2 * F + 1), dtype=complex)
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


def _windings(spec: ProtocolSpec, terms, A) -> list:
    """The 1D branch of `_invariants` (see the module docstring): per walk of
    a stack's Fourier `terms`, (n, float(n)) from the roots of its in-plane
    Laurent polynomial about its chiral axis A (`chiral_axes`), or the
    BoundaryStateError that says why it has none."""
    z = _in_plane_coefficients(terms, A)
    inside, closes = _root_count(z)
    halves = 2 if momentum_period(spec, 0) == np.pi else 1
    windings = ((inside - z.shape[1] // 2) // halves).tolist()
    return [(n, float(n)) if k == np.inf else BoundaryStateError(
        f"winding undefined: the gap closes at k = {[round(k, 6)]}")
        for n, k in zip(windings, closes.tolist())]


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
    the direction p = e_z of d's frame, or NaN where n_hat is exactly
    antipodal across a mesh edge.  d is given as `_mesh_bloch` gives it,
    (x', y', z') = CHERN_FRAME times the Bloch d, so p is CHERN_FRAME^T e_z
    of the Bloch frame; the count is the degree in either frame.

    Every row, column and diagonal edge a -> b has det(a, b, p) =
    x'_a y'_b - y'_a x'_b, formed once and shared by its two triangles, so
    their signs agree; an exact 0 counts as positive in that stored
    direction, and its endpoints are looked at in 3D.  A triangle whose
    three edge signs agree covers p or -p; det(a, b, c) of the same sign
    says p.  Per block of rows, one reused tile holds a copy of (x', y')
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
        tile[:, :, :r, :n] = d[:2, :, rows]
        tile[:, :, r, :n] = d[:2, :, below]
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
    return WindingResult(*_one_walk(
        "winding_number", 1, registry_lookup(spec_or_id, T=T, angles=angles), grid_n))


def chern_number(spec_or_id, *, angles=None, T=None, grid_n: int = 64) -> ChernResult:
    """Degree of n_hat over the minimal 2D momentum torus (`_chern`: the
    signed mesh triangles covering one direction), on at least MIN_SCAN_GRID
    points per axis."""
    return ChernResult(*_one_walk(
        "chern_number", 2, registry_lookup(spec_or_id, T=T, angles=angles), grid_n))


def _one_walk(name: str, dim: int, spec: ProtocolSpec, grid_n) -> Tuple[int, float]:
    """(n, raw) of the walk `spec` of the `dim`-D call `name`, or its error raised."""
    if spec.dimension != dim:
        raise InvalidInputError(f"{name} needs a {dim}D protocol")
    scan_grid(grid_n)
    (result,) = _invariants(spec, stacked_params(spec), grid_n)
    if isinstance(result, BoundaryStateError):
        raise result
    return result


def sweep_invariants(spec_or_id, grid_n: int, *, angles=None,
                     T=None) -> List[Optional[Tuple[int, float]]]:
    """The winding (1D) or Chern (2D) number of each walk of the stack
    (`angles`, `T`: scalars or 1-D arrays, `stacked_params`), in one pass:
    (n, raw) per walk, or None where its gap closes or the invariant is
    undefined."""
    scan_grid(grid_n)
    spec = registry_lookup(spec_or_id)
    return [None if isinstance(r, BoundaryStateError) else r
            for r in _invariants(spec, stacked_params(spec, angles, T), grid_n)]


def _invariants(spec: ProtocolSpec, angles, grid_n: int) -> list:
    """The one invariant route: per walk of the stack of `spec` at the
    effective `angles` (`stacked_params`), (n, raw) or the BoundaryStateError
    that says why it has none; its callers check grid_n first.  1D walks count
    the roots of their in-plane Fourier polynomial (`_windings`), exactly and
    with no mesh.  2D walks run the gap search (`_closings`) on the open mesh
    of the minimal momentum torus at no fewer than MIN_SCAN_GRID points per
    axis, so a closing between mesh points is refined, not hidden by the
    degree (an integer on any mesh), and no coarser mesh is counted; the walks
    with no candidate refined to |d| <= EPS_GAP reduce the same d (`_chern`)
    to `_quantized`."""
    dim = spec.dimension
    if dim not in (1, 2):
        raise InvalidInputError("invariants are computed for 1D (winding) and 2D (Chern) only")
    plan, terms = _stack(spec, angles)
    count = len(terms[0][1])
    if not count:
        return []
    if dim == 1:
        return _windings(spec, terms, chiral_axes(spec, angles=angles, T=1))
    periods = [momentum_period(spec, ax) for ax in range(dim)]
    d, norm, *starts = _closings(terms, grid_n, periods)
    which, pts, _, resid = _gauss_newton(plan, *starts)
    results: list = [None] * count
    closes = np.flatnonzero(resid <= EPS_GAP)[::-1]
    for i, j in dict(zip(which[closes].tolist(), closes.tolist())).items():  # each walk's first
        results[i] = BoundaryStateError(
            f"Chern number undefined: the gap closes at k = {wrap_pi(pts[j]).round(6).tolist()}")
    todo = [i for i, r in enumerate(results) if r is None]
    if not todo:
        return results
    if len(todo) < count:
        d, norm = d[:, todo], norm[todo]
    raw, margin = _chern(d, norm)
    for i, r, m in zip(todo, raw.tolist(), margin.tolist()):
        try:
            results[i] = (_quantized("Chern number", r, m), r)
        except BoundaryStateError as err:
            results[i] = err
    return results
