"""Particle-hole / time-reversal / chiral checks and the AZ classification.

Relations are checked on the one-step unitary U(k) of `build_unitary`, in
their Floquet form (Kitagawa, Berg, Rudner & Demler, PRB 82, 235114, 2010):

    phs:  M U*(k') M^dag = U(k)         (antiunitary, k' = -k by default)
    trs:  M U*(k') M^dag = U(k)^dag     (antiunitary, k' = -k by default)
    chs:  M^dag U(k') M  = U(k)^dag     (unitary, k' = k)

With U = exp(-i H), each is the exponential of the Hamiltonian relation
M H*(k') M^dag = -H(k), M H*(k') M^dag = +H(k) and M^dag H(k') M = -H(k), and
is equivalent to it wherever H = i log U is defined.  On U it holds at every
momentum, band touchings at quasi-energy 0 or pi included, so no momentum is
masked.  `classify` and `operator_search` evaluate U(k) and, if an operator
flips momentum, U(-k) once on the open mesh of the BZ grid and reduce every
relation's residual from them, each with one matrix product.

The classification table bundles, for every registered protocol, a designated
operator set realizing its catalog row.  Three rows (2d-split, 3d-split trs
and chs, 3d-chs chs, hence also 3d-cii phs and chs) are *declared*: their
Bloch vector provably spans all three axes, so no constant-matrix operator
can realize the cataloged symmetry for the registered element ordering, and
the report carries `operator_verified: false` for them.  `evidence_ratio`
(the smallest-to-largest singular-value ratio of the d cloud) quantifies the
obstruction; it comes from the one d-cloud SVD (`chiral_axis_fit`), which also
decides once per protocol whether the closed form of `chiral_axes` applies.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ClassificationError, DegenerateGridError, InvalidInputError
from .protocols import (Coin, ProtocolSpec, _as_momenta, _integer, build_unitary,
                        registry_lookup, stacked_params)
from .spectrum import bloch
from .su2 import SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z, block_diag2, tensor, unit_axis

RESIDUAL_TOL = 1e-8
SQUARE_TOL = 1e-10
_BRANCH_MARGIN = 1e-6  # |d| below which `chiral_axis_fit` treats a momentum as a closing
CLASSIFY_GRID = {1: 129, 2: 24, 3: 10}  # points per axis of `classify`'s BZ grid

_PAULIS = {"s0": SIGMA_0, "sx": SIGMA_X, "sy": SIGMA_Y, "sz": SIGMA_Z}


@dataclass(frozen=True)
class SymmetryOperator:
    matrix: np.ndarray
    antiunitary: bool
    momentum_flip: bool
    label: str = ""

    def square(self) -> Optional[int]:
        M = np.asarray(self.matrix)
        S = M @ (M.conj() if self.antiunitary else M)
        n = S.shape[0]
        for s in (1, -1):
            if np.abs(S - s * np.eye(n)).max() <= SQUARE_TOL:
                return s
        return None


def momentum_axes(dimension: int, n: int, periods=None) -> List[np.ndarray]:
    """Per-axis uniform n-point grids over [-pi, -pi + p), p from `periods`
    (default 2 pi); their sparse `np.meshgrid` is an open mesh for the plan."""
    periods = [2 * np.pi] * dimension if periods is None else periods
    return [np.linspace(-np.pi, -np.pi + p, n, endpoint=False) for p in periods]


def bz_grid(dimension: int, n: int) -> np.ndarray:
    """Uniform n-per-axis grid over [-pi, pi), flattened to (n^dim, dim)."""
    mesh = np.meshgrid(*momentum_axes(dimension, n), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _open_mesh(dimension: int, n: int) -> List[np.ndarray]:
    """The open mesh of the n-per-axis BZ grid: U on it is U on `bz_grid`,
    shaped (n,) * dimension, from n exponentials per axis."""
    return np.meshgrid(*momentum_axes(dimension, n), indexing="ij", sparse=True)


def _grid_pair(spec: ProtocolSpec, k, flip: bool):
    """U at the momenta k (a batch or an open mesh), then U at -k if `flip`,
    else the same array again."""
    ks = _as_momenta(spec, k)
    U = build_unitary(spec, ks)
    return U, (build_unitary(spec, tuple(-x for x in ks)) if flip else U)


def _residual(op: SymmetryOperator, relation: str, U, Up) -> float:
    """Max over the grid of the relation residual (sup norm), U at k and Up at
    the momenta op compares k with.  The sandwich L = A X B of every point is
    one row of the (points, n^2) @ kron(A^T, B) product, row-major."""
    if not U.size:
        raise DegenerateGridError("no momenta on the grid")
    M = np.asarray(op.matrix, dtype=complex)
    n = M.shape[0]
    X = (Up.conj() if op.antiunitary else Up).reshape(-1, n * n)
    # chs: M^dag X M; phs and trs: M X M^dag
    K = np.kron(M.conj(), M) if relation == "chs" else np.kron(M.T, M.conj().T)
    L = (X @ K).reshape(U.shape)
    # exp of the H relation (L_H = -H(k) for phs and chs, +H(k) for trs) gives U^dag or
    # U; an antiunitary op conjugates U = exp(-iH) to exp(+iH*), which swaps the two
    target = U if op.antiunitary != (relation == "trs") else np.swapaxes(U, -1, -2).conj()
    return float(np.abs(L - target).max())


def check_relation(spec: ProtocolSpec, op: SymmetryOperator, relation: str,
                   k_grid: np.ndarray) -> float:
    """Max over the grid of the relation residual on U (sup norm)."""
    if relation not in ("phs", "trs", "chs"):
        raise InvalidInputError(f"unknown relation {relation!r}")
    return _residual(op, relation, *_grid_pair(spec, k_grid, op.momentum_flip))


def chiral_axis_fit(spec: ProtocolSpec):
    """(axis, planarity ratio) of the d cloud of the walk (or of the walk it
    doubles), its gap-open Bloch vectors on a 24-per-axis BZ grid: the unit
    normal of its best plane, of either sign, and its smallest/largest singular
    value (0 = planar); DegenerateGridError if fewer than 3 are gap-open."""
    spec = _base_of(spec)
    d = bloch(spec, _open_mesh(spec.dimension, 24)).d.reshape(-1, 3)
    d = d[np.linalg.norm(d, axis=-1) > _BRANCH_MARGIN]
    if len(d) < 3:
        raise DegenerateGridError("not enough gap-open points to fit a chiral axis")
    _, s, vt = np.linalg.svd(d, full_matrices=False)
    return vt[-1], float(s[-1] / s[0])


def _turned_e_x(coin: Coin, angles, T) -> np.ndarray:
    """e_x turned by h = -T theta/2 about the axis n of `coin` (angle theta) per
    walk of the stack, (V, 3): cos h e_x + sin h (0, n_z, -n_y) + (1 - cos h) n_x n."""
    nx, ny, nz = unit_axis(coin.axis)
    h = -0.5 * (T * angles[coin.symbol])
    c, s = np.cos(h), np.sin(h)
    return np.stack([c + (1 - c) * nx * nx, s * nz + (1 - c) * nx * ny,
                     (1 - c) * nx * nz - s * ny], axis=-1)


@lru_cache(maxsize=64)
def _chiral_coin(dimension: int, elements: tuple) -> Optional[Coin]:
    """The first coin of the two-band walk of `elements` if the walk is
    chiral about the axis `_turned_e_x` gives from it, else None: its d
    cloud at generic angles (`chiral_axis_fit`) must be planar about it."""
    coin = next((el for el in elements if isinstance(el, Coin)), None)
    if coin is None:
        return None
    spec = _ensure_generic_angles(ProtocolSpec("", dimension, elements))
    try:
        axis, ratio = chiral_axis_fit(spec)
    except DegenerateGridError:  # d = 0 at every momentum
        return None
    A = _turned_e_x(coin, *stacked_params(spec))[0]
    return coin if max(ratio, np.linalg.norm(np.cross(axis, A))) <= 1e-9 else None


def chiral_axes(spec: ProtocolSpec, *, angles=None, T=None) -> np.ndarray:
    """The chiral axis A, Gamma = A.sigma, of each walk of the stack
    (`angles`, `T`: scalars or 1-D arrays, `stacked_params`) of a two-band
    chiral protocol or its doubling, as a (V, 3) array: e_x turned by
    -T theta/2 about the axis of the first coin (angle theta): the walk is
    sigma_x-chiral in the time frame that splits that coin in halves (Asboth
    & Obuse, PRB 88, 121406(R), 2013).  A protocol not chiral about it
    (`_chiral_coin`) raises ClassificationError, whatever the angles."""
    base = _base_of(spec)
    angles, T = stacked_params(base, angles, T)
    coin = _chiral_coin(base.dimension, base.elements)
    if coin is None:
        raise ClassificationError(f"{spec.id!r} has no constant chiral axis: its d cloud"
                                  f" at generic angles is not planar about one")
    return _turned_e_x(coin, angles, T)


def chiral_axis(spec: ProtocolSpec) -> np.ndarray:
    """The chiral axis of the walk (`chiral_axes`)."""
    return chiral_axes(spec)[0]


def _base_of(spec: ProtocolSpec) -> ProtocolSpec:
    """The two-band walk a four-band spec doubles; a two-band spec itself."""
    return spec if spec.doubled is None else replace(spec, doubled=None)


def axis_sigma(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    return A[0] * SIGMA_X + A[1] * SIGMA_Y + A[2] * SIGMA_Z


def _offdiag(A, B) -> np.ndarray:
    M = np.zeros((4, 4), dtype=complex)
    M[:2, 2:] = A
    M[2:, :2] = B
    return M


def default_candidates(spec: ProtocolSpec) -> List[Tuple[str, np.ndarray]]:
    """phase * sigma_j (two-band) or phase * tau_i x sigma_j (four-band),
    extended with flavor-block operators built from the base chiral axis when
    the base walk has one."""
    cands = []
    if spec.bands == 2:
        for name, s in _PAULIS.items():
            cands.append((name, s))
            cands.append(("i*" + name, 1j * s))
    else:
        for tn, t in _PAULIS.items():
            for sn, s in _PAULIS.items():
                M = tensor(t, s)
                cands.append((f"{tn[1]}x{sn}", M))
                cands.append((f"i*{tn[1]}x{sn}", 1j * M))
        try:
            G = axis_sigma(chiral_axis(spec))
        except ClassificationError:
            G = None
        if G is not None:
            cands.append(("diag(G,G*)", block_diag2(G, G.conj())))
            cands.append(("diag(G,-G*)", block_diag2(G, -G.conj())))
            cands.append(("offdiag(G,G*)", _offdiag(G, G.conj())))
            cands.append(("offdiag(G,-G*)", _offdiag(G, -G.conj())))
    return cands


_CANONICAL_COMBOS = {  # relation -> (antiunitary, momentum flip)
    "phs": (True, True),
    "trs": (True, True),
    "chs": (False, False),
}


def operator_search(spec: ProtocolSpec, relation: str, n_per_axis: int = 16):
    """The `default_candidates` operators that satisfy the relation within
    RESIDUAL_TOL on an n_per_axis BZ grid, in their conventional realization:
    antiunitary comparing k to -k for phs/trs, unitary at the same k for chs.
    (The *no-flip* antiunitary channel is satisfied kinematically by sigma_y K
    for every two-band walk, sigma_y U*(k) sigma_y = U(k) for every SU(2)
    matrix U, so it says nothing about the protocol and is never tried.)

    Only operators with a well-defined square (+-1) are kept.  Returns a list
    of (SymmetryOperator, residual) sorted by residual; n_per_axis = 0 finds
    none.
    """
    if relation not in _CANONICAL_COMBOS:
        raise InvalidInputError(f"unknown relation {relation!r}")
    _integer("n_per_axis", n_per_axis, 0)
    anti, flip = _CANONICAL_COMBOS[relation]
    grids = _grid_pair(spec, _open_mesh(spec.dimension, n_per_axis), flip)
    found = []
    for name, M in default_candidates(spec):
        op = SymmetryOperator(matrix=M, antiunitary=anti, momentum_flip=flip, label=name)
        if op.square() is None:
            continue
        try:
            r = _residual(op, relation, *grids)
        except DegenerateGridError:
            continue
        if r <= RESIDUAL_TOL:
            found.append((op, r))
    found.sort(key=lambda pair: pair[1])
    return found


# -- classification -----------------------------------------------------------

_FAMILY = {
    (0, 0, 0): "A",
    (0, 0, 1): "AIII",
    (1, 1, 1): "BDI",
    (1, 0, 0): "D",
    (1, -1, 1): "DIII",
    (0, -1, 0): "AII",
    (-1, -1, 1): "CII",
    (-1, 0, 0): "C",
}

# catalog rows: (phs, trs, chs) squares (0 = absent) and invariant group
_CATALOG: Dict[str, Tuple[Tuple[int, int, int], str]] = {
    "1d-simple": ((1, 1, 1), "Z"),
    "1d-split": ((1, 1, 1), "Z"),
    "1d-phs": ((1, 0, 0), "Z2"),
    "1d-diii": ((1, -1, 1), "Z2"),
    "1d-chs": ((0, 0, 1), "Z"),
    "1d-cii": ((-1, -1, 1), "Z"),
    "2d-simple": ((1, 1, 1), "0"),
    "2d-split": ((1, 1, 1), "0"),
    "2d-phs": ((1, 0, 0), "Z"),
    "2d-diii": ((1, -1, 1), "Z2"),
    "2d-nosym": ((0, 0, 0), "Z"),
    "2d-aii": ((0, -1, 0), "Z2"),
    "2d-c": ((-1, 0, 0), "Z"),
    "3d-simple": ((1, 1, 1), "0"),
    "3d-split": ((1, 1, 1), "0"),
    "3d-phs": ((1, 0, 0), "0"),
    "3d-diii": ((1, -1, 1), "Z"),
    "3d-chs": ((0, 0, 1), "Z"),
    "3d-cii": ((-1, -1, 1), "Z2"),
    "3d-nosym": ((0, 0, 0), "0"),
    "3d-aii": ((0, -1, 0), "Z2"),
    "3d-c": ((-1, 0, 0), "0"),
}

# rows whose cataloged operators have no constant-matrix realization for the
# registered element ordering (see module docstring); relation -> declared
_DECLARED: Dict[str, Tuple[str, ...]] = {
    "2d-split": ("trs", "chs"),
    "3d-split": ("trs", "chs"),
    "3d-chs": ("chs",),
    "3d-cii": ("phs", "chs"),
}


def designated_operators(spec: ProtocolSpec) -> Dict[str, SymmetryOperator]:
    """The registered operator realizing each present symmetry of the row."""
    pid = spec.id
    squares = _CATALOG[pid][0]
    ops: Dict[str, SymmetryOperator] = {}
    declared = _DECLARED.get(pid, ())

    def K(matrix, label):
        return SymmetryOperator(matrix=matrix, antiunitary=True, momentum_flip=True,
                                label=label)

    def uni(matrix, label):
        return SymmetryOperator(matrix=matrix, antiunitary=False, momentum_flip=False,
                                label=label)

    if spec.doubled is None:
        if squares[0] and "phs" not in declared:
            ops["phs"] = K(SIGMA_0, "K")
        if squares[2] and "chs" not in declared:
            G = axis_sigma(chiral_axis(spec))
            ops["chs"] = uni(G, "A.sigma")
        if squares[1] and "trs" not in declared:
            # composition Gamma o P: antiunitary with matrix G (P is plain K)
            ops["trs"] = K(ops["chs"].matrix, "A.sigma K")
    elif spec.doubled == "transpose_block":
        if squares[1]:
            ops["trs"] = K(tensor(SIGMA_Y, SIGMA_0), "yxs0 K")
        if squares[0] == 1:
            ops["phs"] = K(np.eye(4, dtype=complex), "K")
        elif squares[0] == -1 and "phs" not in declared:
            G = axis_sigma(chiral_axis(spec))
            ops["phs"] = K(_offdiag(G, -G.conj()), "offdiag(G,-G*) K")
        if squares[2] and "chs" not in declared:
            if squares[0] == 1:
                ops["chs"] = uni(tensor(SIGMA_X, SIGMA_0), "xxs0")
            else:
                G = axis_sigma(chiral_axis(spec))
                ops["chs"] = uni(block_diag2(G, G.conj()), "diag(G,G*)")
    elif spec.doubled == "conjugate_block":
        ops["phs"] = K(tensor(SIGMA_Y, SIGMA_0), "yxs0 K")
    elif spec.doubled == "trs_sandwich":
        ops["trs"] = K(tensor(SIGMA_Y, SIGMA_0), "yxs0 K")
    return ops


@dataclass
class SymmetryReport:
    protocol: str
    dimension: int
    phs: int  # square, 0 = absent
    trs: int
    chs: int
    az_family: str
    invariant_group: str
    residuals: Dict[str, float] = field(default_factory=dict)
    operator_verified: Dict[str, bool] = field(default_factory=dict)
    evidence_ratio: Optional[float] = None

    def canonical(self) -> dict:
        return {"protocol": self.protocol, "dimension": self.dimension,
                "phs": self.phs, "trs": self.trs, "chs": self.chs,
                "az_family": self.az_family, "invariant_group": self.invariant_group}

    def as_record(self) -> dict:
        rec = self.canonical()
        rec["residuals"] = {k: v for k, v in self.residuals.items()}
        rec["operator_verified"] = dict(self.operator_verified)
        if self.evidence_ratio is not None:
            rec["evidence_ratio"] = self.evidence_ratio
        return rec


def _designated_residuals(spec: ProtocolSpec, ops: Dict[str, SymmetryOperator]
                          ) -> Dict[str, float]:
    """Each designated operator's residual on the CLASSIFY_GRID BZ grid, all
    from one evaluation of U(k) and, if an operator flips momentum, U(-k)."""
    if not ops:
        return {}
    mesh = _open_mesh(spec.dimension, CLASSIFY_GRID[spec.dimension])
    U, Um = _grid_pair(spec, mesh, any(op.momentum_flip for op in ops.values()))
    return {rel: _residual(op, rel, U, Um if op.momentum_flip else U)
            for rel, op in ops.items()}


def classify(spec_or_id) -> SymmetryReport:
    """Verify the designated operators and emit the catalog row for a protocol.

    Raises ClassificationError if a designated operator fails its residual
    check.
    """
    spec = _ensure_generic_angles(registry_lookup(spec_or_id))
    pid = spec.id
    squares, invariant = _CATALOG[pid]
    ops = designated_operators(spec)
    found = _designated_residuals(spec, ops)
    declared = _DECLARED.get(pid, ())
    residuals: Dict[str, float] = {}
    verified: Dict[str, bool] = {}
    for rel, sq in zip(("phs", "trs", "chs"), squares):
        if sq == 0:
            continue
        if rel in declared:
            verified[rel] = False
            continue
        op, r = ops[rel], found[rel]
        residuals[rel] = r
        if r > RESIDUAL_TOL:
            raise ClassificationError(
                f"{pid}: designated {rel} operator {op.label!r} failed: residual {r:.3e}")
        got = op.square()
        if got != sq:
            raise ClassificationError(
                f"{pid}: designated {rel} operator squares to {got}, catalog says {sq}")
        verified[rel] = True

    evidence = None
    if declared:
        _, evidence = chiral_axis_fit(spec)

    family = _FAMILY[squares]
    return SymmetryReport(protocol=pid, dimension=spec.dimension,
                          phs=squares[0], trs=squares[1], chs=squares[2],
                          az_family=family, invariant_group=invariant,
                          residuals=residuals, operator_verified=verified,
                          evidence_ratio=evidence)


_GENERIC_ANGLES = {"alpha": 0.83, "beta": 0.41, "gamma": 1.27, "zeta": 0.59}


def _ensure_generic_angles(spec: ProtocolSpec) -> ProtocolSpec:
    """Replace an all-zero angle binding with generic values: symmetry checks
    at the trivial point would be vacuous."""
    if any(spec.angles.get(s, 0.0) != 0.0 for s in spec.symbols):
        return spec
    T = spec.T if spec.T != 1 else 3
    return spec.with_params(T=T, **{s: _GENERIC_ANGLES[s] for s in spec.symbols})
