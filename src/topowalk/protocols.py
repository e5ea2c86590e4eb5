"""Momentum-space walk protocols: coins, shifts, and the one-step unitary.

A protocol is an ordered tuple of coin and shift elements stored in
*application order* (the first element acts on the state first; the matrix
product multiplies them from the left).  Coins are SU(2) rotations whose
effective angle scales with the step number T.  Shifts are diagonal
momentum-space phase matrices diag(exp(i u.k), exp(i d.k)) with integer
coefficient vectors u, d, so every registered protocol is exactly
2*pi-periodic in each momentum component.

Four-band protocols are built from a two-band base walk by giving the walker
a flavor index.  Because transposition and complex conjugation of a
position-space operator map to transposition/conjugation *at reversed
momentum*, the flavor blocks are assembled as

    transpose_block:  diag(U(k), U(-k)^T)
    conjugate_block:  diag(U(k), U(-k)^*)
    trs_sandwich:     diag(U(k), 1) exp(-i tau_y sigma_y phi/2) diag(1, U(-k)^T)

which keeps the four-band quasi-energy spectrum symmetric under k -> -k.

`compile_plan` turns a spec into a `Plan` once: per coin its four SU(2)
entries, per run of adjacent shifts one pair of integer phase vectors; it
rejects a walk that is not special-unitary.  The plan evaluates U(k) as four
complex entry arrays updated elementwise (a shift scales the two rows, a coin
mixes them), with no per-element (..., 2, 2) matrices; the product of
`su2.pauli_exp` coins and diagonal shift matrices is the reference the tests
hold it to.  On request the same loop also carries the exact dU/dk_i, since
only the shifts depend on k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Mapping, Optional, Tuple, Union

import numpy as np

from .errors import InvalidInputError, UnknownProtocolError
from .su2 import SIGMA_Y, TAU_Y, block_diag2, tensor, unit_axis

AXIS_Y = (0.0, 1.0, 0.0)
AXIS_NU = (0.0, math.sqrt(0.5), math.sqrt(0.5))

ANGLE_SYMBOLS = ("alpha", "beta", "gamma", "zeta")


@dataclass(frozen=True)
class Coin:
    """SU(2) rotation by T*angle about a fixed axis."""

    symbol: str
    axis: Tuple[float, float, float] = AXIS_Y


@dataclass(frozen=True)
class Shift:
    """diag(exp(i up.k), exp(i down.k)) with integer phase coefficients."""

    up: Tuple[int, ...]
    down: Tuple[int, ...]


Element = Union[Coin, Shift]


def shift_both(dim: int, *axes: int) -> Shift:
    """Spin-conditioned shift moving both components: exp(i (sum_a k_a) sigma_z)."""
    e = [0] * dim
    for a in axes:
        e[a] = 1
    return Shift(up=tuple(e), down=tuple(-x for x in e))


def shift_up_phase(dim: int, axis: int) -> Shift:
    """Half shift diag(exp(i k_axis), 1), i.e. exp(i k/2 (sigma_z + 1))."""
    e = [0] * dim
    e[axis] = 1
    return Shift(up=tuple(e), down=tuple([0] * dim))


def shift_down_phase(dim: int, axis: int) -> Shift:
    """Half shift diag(1, exp(-i k_axis)), i.e. exp(i k/2 (sigma_z - 1))."""
    e = [0] * dim
    e[axis] = -1
    return Shift(up=tuple([0] * dim), down=tuple(e))


@dataclass(frozen=True)
class ProtocolSpec:
    """A registered walk protocol with bound step number and rotation angles."""

    id: str
    dimension: int
    elements: Tuple[Element, ...]
    T: int = 1
    angles: Mapping[str, float] = field(default_factory=dict)
    doubled: Optional[str] = None  # None | transpose_block | conjugate_block | trs_sandwich
    phi: float = math.pi / 2  # only used by trs_sandwich

    @property
    def symbols(self) -> Tuple[str, ...]:
        seen = []
        for el in self.elements:
            if isinstance(el, Coin) and el.symbol not in seen:
                seen.append(el.symbol)
        return tuple(seen)

    @property
    def bands(self) -> int:
        return 4 if self.doubled else 2

    def with_params(self, T: Optional[int] = None, phi: Optional[float] = None,
                    **angles: float) -> "ProtocolSpec":
        new_T = self.T if T is None else T
        if not (isinstance(new_T, (int, np.integer)) and not isinstance(new_T, bool)):
            raise InvalidInputError(f"step number T must be an integer, got {new_T!r}")
        if new_T < 1:
            raise InvalidInputError(f"step number T must be >= 1, got {new_T}")
        known = set(self.symbols)
        for sym in angles:
            if sym not in known:
                raise InvalidInputError(
                    f"protocol {self.id!r} has no angle {sym!r}; it uses {sorted(known)}")
        merged = dict(self.angles)
        merged.update({sym: float(v) for sym, v in angles.items()})
        return replace(self, T=int(new_T), angles=merged,
                       phi=self.phi if phi is None else float(phi))


def _spec(pid, dim, elements, doubled=None):
    spec = ProtocolSpec(id=pid, dimension=dim, elements=tuple(elements), doubled=doubled)
    return replace(spec, angles={sym: 0.0 for sym in spec.symbols})


def _registry() -> dict:
    cy, cn = (lambda s: Coin(s, AXIS_Y)), (lambda s: Coin(s, AXIS_NU))
    sb = shift_both
    su, sd = shift_up_phase, shift_down_phase

    one_d_phs = [sb(1, 0), cy("beta"), su(1, 0), cy("alpha"), sd(1, 0)]
    one_d_chs = [cn("beta"), su(1, 0), cn("alpha"), sd(1, 0)]
    two_d_phs = [cy("beta"), sb(2, 0, 1), cy("alpha"), sb(2, 1), cy("beta"), sb(2, 0)]
    two_d_nosym = [cy("beta"), sb(2, 0, 1), cn("alpha"), sb(2, 0), cy("gamma"), sb(2, 1)]
    three_d_phs = [cy("beta"), sb(3, 0, 1, 2), cy("alpha"), sb(3, 0),
                   cy("gamma"), sb(3, 1), cy("zeta"), sb(3, 2)]
    three_d_chs = [cn("beta"), sb(3, 0), cn("alpha"), sb(3, 1), cn("gamma"), sb(3, 2)]
    three_d_nosym = [cy("beta"), sb(3, 0, 1, 2), cn("alpha"), sb(3, 0),
                     cy("gamma"), sb(3, 1), cy("zeta"), sb(3, 2)]

    entries = [
        _spec("1d-simple", 1, [cy("beta"), sb(1, 0)]),
        _spec("1d-split", 1, [cy("beta"), su(1, 0), cy("alpha"), sd(1, 0)]),
        _spec("1d-phs", 1, one_d_phs),
        _spec("1d-diii", 1, one_d_phs, doubled="transpose_block"),
        _spec("1d-chs", 1, one_d_chs),
        _spec("1d-cii", 1, one_d_chs, doubled="transpose_block"),
        _spec("2d-simple", 2, [cy("beta"), sb(2, 0), sb(2, 1)]),
        _spec("2d-split", 2, [cy("beta"), sb(2, 0), cy("alpha"), sb(2, 1)]),
        _spec("2d-phs", 2, two_d_phs),
        _spec("2d-diii", 2, two_d_phs, doubled="transpose_block"),
        _spec("2d-nosym", 2, two_d_nosym),
        _spec("2d-aii", 2, two_d_nosym, doubled="trs_sandwich"),
        _spec("2d-c", 2, two_d_nosym, doubled="conjugate_block"),
        _spec("3d-simple", 3, [cy("beta"), sb(3, 0), sb(3, 1), sb(3, 2)]),
        _spec("3d-split", 3, [cy("beta"), sb(3, 0), cy("alpha"), sb(3, 1),
                              cy("gamma"), sb(3, 2)]),
        _spec("3d-phs", 3, three_d_phs),
        _spec("3d-diii", 3, three_d_phs, doubled="transpose_block"),
        _spec("3d-chs", 3, three_d_chs),
        _spec("3d-cii", 3, three_d_chs, doubled="transpose_block"),
        _spec("3d-nosym", 3, three_d_nosym),
        _spec("3d-aii", 3, three_d_nosym, doubled="trs_sandwich"),
        _spec("3d-c", 3, three_d_nosym, doubled="conjugate_block"),
    ]
    return {spec.id: spec for spec in entries}


REGISTRY = _registry()
PROTOCOL_IDS = tuple(REGISTRY)


def registry_lookup(spec_or_id: Union[str, ProtocolSpec], T: Optional[int] = None,
                    angles: Optional[Mapping[str, float]] = None,
                    phi: Optional[float] = None) -> ProtocolSpec:
    """Return a protocol, given by registry id or as a spec, with the given step
    number, angles and phi bound; what is not given keeps its current value."""
    if isinstance(spec_or_id, ProtocolSpec):
        spec = spec_or_id
    elif not isinstance(spec_or_id, str):
        raise UnknownProtocolError(f"protocol id must be a string, got {spec_or_id!r}")
    else:
        try:
            spec = REGISTRY[spec_or_id]
        except KeyError:
            raise UnknownProtocolError(f"unknown protocol id {spec_or_id!r};"
                                       f" valid ids: {', '.join(PROTOCOL_IDS)}") from None
    return spec.with_params(T=T, phi=phi, **dict(angles or {}))


def step_independent_reduction(spec: ProtocolSpec) -> ProtocolSpec:
    """Rewrite the spec to step number 1 (the step-independent-coin walk)."""
    return replace(spec, T=1)


def _as_momenta(spec: ProtocolSpec, k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if spec.dimension == 1 and (k.ndim == 0 or k.shape[-1] != 1):
        k = k[..., None]
    if k.ndim == 0 or k.shape[-1] != spec.dimension:
        raise InvalidInputError(
            f"momentum must have trailing dimension {spec.dimension} for {spec.id!r},"
            f" got shape {k.shape}")
    return k


def _coin_entries(el: Coin, spec: ProtocolSpec, angles, T):
    """The entries of exp(-i T theta/2 axis.sigma), scalars or arrays like theta and T."""
    try:
        theta = angles[el.symbol]
    except KeyError:
        raise InvalidInputError(f"angle {el.symbol!r} missing for protocol {spec.id!r}") from None
    nx, ny, nz = unit_axis(el.axis)
    eff = T * np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(eff)):
        raise InvalidInputError("rotation angle must be finite")
    half = 0.5 * eff
    cos, msin = np.cos(half), -1j * np.sin(half)
    return (cos + msin * nz, msin * (nx - 1j * ny), msin * (nx + 1j * ny), cos - msin * nz)


def _phase_terms(coeffs) -> Tuple[Tuple[int, int], ...]:
    return tuple((ax, n) for ax, n in enumerate(coeffs) if n != 0)


def _phase(k: np.ndarray, terms):
    """exp(i sum_j n_j k_j) over the (axis, n_j) terms; None for the empty sum."""
    arg = None
    for ax, n in terms:
        t = k[..., ax] if n == 1 else -k[..., ax] if n == -1 else n * k[..., ax]
        arg = t if arg is None else arg + t
    return None if arg is None else np.exp(1j * arg)


@dataclass(frozen=True, eq=False)
class Plan:
    """A protocol's two-band walk compiled for evaluation at any momenta.

    `steps` holds, in application order, ("coin", (c00, c01, c10, c11)) with
    a coin's SU(2) entries, and ("shift", up, down, mirrored) for a run of
    adjacent shifts merged into one: the (axis, coefficient) terms of its two
    integer phase vectors, `mirrored` when down = -up.
    """

    spec: ProtocolSpec
    steps: Tuple[tuple, ...]

    def _walk(self, k, grad: bool):
        """The step loop: (a, b, c, d) with U(k) = [[a, b], [c, d]] and, with
        `grad`, per momentum axis i the row d(a, b, c, d)/dk_i.  A coin mixes
        the derivative rows as it mixes the values.  Only the shifts carry k:
        a phase p = exp(i n.k) takes a value X to X p and its derivative X' to
        (X' + i n_i X) p."""
        k = _as_momenta(self.spec, k)
        a, b, c, d = 1.0, 0.0, 0.0, 1.0
        grads = [(0.0, 0.0, 0.0, 0.0)] * self.spec.dimension if grad else []
        for kind, *data in self.steps:
            if kind == "coin":
                c00, c01, c10, c11 = data[0]
                a, b, c, d = (c00 * a + c01 * c, c00 * b + c01 * d,
                              c10 * a + c11 * c, c10 * b + c11 * d)
                if grads:
                    grads = [(c00 * da + c01 * dc, c00 * db + c01 * dd,
                              c10 * da + c11 * dc, c10 * db + c11 * dd)
                             for da, db, dc, dd in grads]
                continue
            up, down, mirrored = data
            p = _phase(k, up)
            q = p.conj() if mirrored else _phase(k, down)
            if grads:
                for ax, n in up:
                    da, db, dc, dd = grads[ax]
                    grads[ax] = (da + 1j * n * a, db + 1j * n * b, dc, dd)
                for ax, n in down:
                    da, db, dc, dd = grads[ax]
                    grads[ax] = (da, db, dc + 1j * n * c, dd + 1j * n * d)
                p1, q1 = (1.0 if p is None else p), (1.0 if q is None else q)
                grads = [(da * p1, db * p1, dc * q1, dd * q1) for da, db, dc, dd in grads]
            if p is not None:
                a, b = a * p, b * p
            if q is not None:
                c, d = c * q, d * q
        return (a, b, c, d), grads

    def entries(self, k):
        """(a, b, c, d) with U(k) = [[a, b], [c, d]], updated elementwise along
        the steps: a shift scales the two rows by its phases, a coin mixes them."""
        return self._walk(k, grad=False)[0]

    def entries_and_grad(self, k):
        """(a, b, c, d) and, per momentum axis i, the exact d(a, b, c, d)/dk_i,
        from the same step loop as `entries`."""
        return self._walk(k, grad=True)

    def unitary(self, k) -> np.ndarray:
        """U(k) of the two-band walk as a (..., 2, 2) array over the momentum batch."""
        k = _as_momenta(self.spec, k)
        out = np.empty(k.shape[:-1] + (2, 2), dtype=complex)
        out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = self.entries(k)
        return out


def compile_plan(spec: ProtocolSpec, *, angles: Optional[Mapping] = None, T=None) -> Plan:
    """Compile the spec's two-band walk once; `angles` and `T` override the
    bound values as in `build_unitary`.  The coins are SU(2), so the walk is
    special-unitary iff, on every axis, the shifts' up + down phases sum to
    0; any other walk is rejected, which lets the Bloch split skip the
    determinant."""
    ang = dict(spec.angles)
    if angles:
        unknown = sorted(set(angles) - set(spec.symbols))
        if unknown:
            raise InvalidInputError(f"protocol {spec.id!r} has no angle {unknown[0]!r};"
                                    f" it uses {sorted(spec.symbols)}")
        ang.update(angles)
    T_eff = spec.T if T is None else T
    if np.any(np.asarray(T_eff) < 1):
        raise InvalidInputError("step number T must be >= 1")

    steps, det_phase = [], [0] * spec.dimension
    for is_coin, run in groupby(spec.elements, key=lambda el: isinstance(el, Coin)):
        run = list(run)
        if is_coin:
            steps += [("coin", _coin_entries(el, spec, ang, T_eff)) for el in run]
            continue
        up = [sum(n) for n in zip(*(el.up for el in run))]
        down = [sum(n) for n in zip(*(el.down for el in run))]
        det_phase = [t + u + v for t, u, v in zip(det_phase, up, down)]
        steps.append(("shift", _phase_terms(up), _phase_terms(down),
                      any(up) and down == [-n for n in up]))
    if any(det_phase):
        raise InvalidInputError(f"{spec.id!r} is not special-unitary: its shifts' up + down"
                                f" phases sum to {det_phase} per axis, not 0")
    return Plan(spec=spec, steps=tuple(steps))


def _sandwich_wall(phi: float) -> np.ndarray:
    """exp(-i tau_y sigma_y phi/2)."""
    g = tensor(TAU_Y, SIGMA_Y)
    return math.cos(phi / 2) * np.eye(4, dtype=complex) - 1j * math.sin(phi / 2) * g


def build_unitary(spec: ProtocolSpec, k, *, angles: Optional[Mapping] = None,
                  T=None) -> np.ndarray:
    """Momentum-space one-step unitary U(k); batched over leading axes of k.

    `angles` values and `T` may be arrays broadcastable against the momentum
    batch shape (useful for random-sample sweeps).  They default to the values
    bound in the spec; an angle the protocol does not use is rejected.  The
    two-band blocks are packed from the entries of the compiled plan.
    """
    plan = compile_plan(spec, angles=angles, T=T)
    k = _as_momenta(spec, k)
    Uk = plan.unitary(k)
    if spec.doubled is None:
        return Uk
    Um = plan.unitary(-k)
    if spec.doubled == "transpose_block":
        return block_diag2(Uk, np.swapaxes(Um, -1, -2))
    if spec.doubled == "conjugate_block":
        return block_diag2(Uk, Um.conj())
    if spec.doubled == "trs_sandwich":
        eye = np.broadcast_to(np.eye(2, dtype=complex), Uk.shape)
        left = block_diag2(Uk, eye)
        right = block_diag2(eye, np.swapaxes(Um, -1, -2))
        return left @ _sandwich_wall(spec.phi) @ right
    raise InvalidInputError(f"unknown doubling {spec.doubled!r}")


def step_independent_unitary(spec: ProtocolSpec, k, *, angles=None) -> np.ndarray:
    """U(k) of the step-independent-coin walk: the spec reduced to T = 1."""
    return build_unitary(step_independent_reduction(spec), k, angles=angles)
