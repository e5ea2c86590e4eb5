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
    trs_sandwich:     diag(U(k), 1) exp(-i tau_y sigma_y pi/4) diag(1, U(-k)^T)

which keeps the four-band quasi-energy spectrum symmetric under k -> -k.

`compile_plan` turns a spec into a `Plan` once: per coin its four SU(2)
entries, per run of adjacent shifts its SU(2) part diag(e^{i m.k}, e^{-i m.k}),
m = (up - down)/2 (half-integer for the 1D half shifts).  The dropped scalars
e^{i (up + down).k/2} multiply to 1: walks whose up + down phases do not sum
to 0 per axis are rejected.  The plan carries only (a, c) of the special-unitary
U(k) = [[a, -conj(c)], [c, conj(a)]], elementwise (a coin mixes the pair, a
shift scales it by its phase and the conjugate), computing each per-axis phasor
exp(i m k_axis) once, so an open mesh costs n exponentials per axis, not n^dim.
Coin and shift matrix products are the tests' reference; the same loop also
carries the exact d(a, c)/dk_i, since only the shifts depend on k.

`Plan.fourier` gives (a, c) as trigonometric polynomials in k instead, for
the dense open-mesh pass of `topology`: a shift only relabels frequencies,
so which frequencies occur (at most three per axis in every registered
walk) is derived once per protocol from its shifts (`_layout`), and
per call only the coins' arithmetic runs on the coefficient arrays.  Flat
batches, gradients, and `entries`/`unitary` on open meshes (the symmetry
checks) stay on the step loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import groupby, product
from numbers import Real
from typing import Mapping, Optional, Tuple, Union

import numpy as np

from .errors import InvalidInputError, UnknownProtocolError
from .su2 import SIGMA_Y, TAU_Y, block_diag2, tensor, unit_axis

AXIS_Y = (0.0, 1.0, 0.0)
AXIS_NU = (0.0, math.sqrt(0.5), math.sqrt(0.5))
# exp(-i tau_y sigma_y pi/4), the fixed wall of the trs_sandwich (AII) walks;
# cos(pi/4), not 1/sqrt(2), which differs in the last bit
SANDWICH_WALL = (math.cos(math.pi / 4) * np.eye(4, dtype=complex)
                 - 1j * math.sin(math.pi / 4) * tensor(TAU_Y, SIGMA_Y))


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

    def with_params(self, T: Optional[int] = None, **angles: float) -> "ProtocolSpec":
        if T is None and not angles and type(self.T) is int:
            return self  # nothing to bind
        steps = self.T if T is None else _step_number(T)
        if type(steps) is not int and np.ndim(steps):
            raise InvalidInputError(f"step number T of a spec must be one integer, got {T!r}")
        merged = _merged_angles(self, angles)
        for sym in angles:
            if np.ndim(merged[sym]):
                raise InvalidInputError(f"angle {sym!r} of a spec must be one number,"
                                        f" got {merged[sym]!r}")
            merged[sym] = float(merged[sym])
        return replace(self, T=int(steps), angles=merged)


def _step_number(T):
    """T, if it is a step number or an array of them: integers >= 1 of at most
    64 bits; an integral float counts, a bool does not."""
    if type(T) is int and 1 <= T < 2 ** 63:
        return T
    steps = np.asarray(T)
    if steps.dtype == object:  # numpy keeps an integer beyond 64 bits as a Python object
        big = [t for t in steps.flat if isinstance(t, int) and abs(t) >= 2 ** 63]
        raise InvalidInputError(f"step number T must be an integer of at most 64 bits,"
                                f" got {big[0] if big else T!r}")
    if steps.dtype.kind not in "iu" and (steps.dtype == bool or np.any(steps != np.round(steps))):
        raise InvalidInputError(f"step number T must be an integer, got {T!r}")
    if np.any(steps < 1):
        raise InvalidInputError(f"step number T must be >= 1, got {T!r}")
    if steps.dtype.kind != "i" and np.any(steps >= 2 ** 63):  # uint64 or float
        raise InvalidInputError(f"step number T must be an integer of at most 64 bits, got {T!r}")
    return T


def _integer(name: str, value, low: int, high: float = np.inf) -> int:
    """`value` as an int if it is an int or numpy integer, not a bool, in
    [low, high); InvalidInputError naming `name` if not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not low <= value < high:
        below = "" if high == np.inf else f" and < {high}"
        raise InvalidInputError(f"{name} must be an integer >= {low}{below}, got {value!r}")
    return int(value)


def _merged_angles(spec: ProtocolSpec, angles: Optional[Mapping]) -> dict:
    """The spec's bound angles updated by `angles`; an angle the protocol does
    not use, or one that is neither a real number nor an array of them (a
    bool, complex number, string or None), is rejected."""
    merged = dict(spec.angles)
    if angles:
        unknown = sorted(set(angles) - set(spec.symbols))
        if unknown:
            raise InvalidInputError(f"protocol {spec.id!r} has no angle {unknown[0]!r};"
                                    f" it uses {sorted(spec.symbols)}")
        for sym, theta in angles.items():
            real = isinstance(theta, Real) or _kind(theta) in "iuf"
            if isinstance(theta, bool) or not real:
                raise InvalidInputError(f"angle {sym!r} must be a real number, got {theta!r}")
        merged.update(angles)
    return merged


def _kind(values) -> str:
    """The numpy dtype kind of `values` as an array, or "O" if it is ragged."""
    try:
        return np.asarray(values).dtype.kind
    except ValueError:
        return "O"


def stacked_params(spec: ProtocolSpec, angles: Optional[Mapping] = None, T=None):
    """The (angles, T) of a stack of walks of the spec: its bound angles
    updated by `angles` and its step number replaced by `T`, each a scalar or
    a 1-D array along the stack, broadcast once to one shape (V,), V = 1 if
    all are scalars: float64 angles and int64 step numbers.  Any other shape,
    two lengths among the arrays, or a T that is no step number is rejected."""
    merged = {sym: np.asarray(theta, dtype=float)
              for sym, theta in _merged_angles(spec, angles).items()}
    steps = np.asarray(_step_number(spec.T if T is None else T))
    params = [*merged.values(), steps]
    shapes = {p.shape for p in params if p.ndim}
    if len(shapes) > 1 or any(p.ndim > 1 for p in params):
        raise InvalidInputError(f"the angles and T of a stack of walks must be scalars or 1-D"
                                f" arrays of one length, got shapes {sorted(shapes)}")
    shape = shapes.pop() if shapes else (1,)
    return ({sym: np.broadcast_to(theta, shape) for sym, theta in merged.items()},
            np.broadcast_to(steps, shape).astype(np.int64))


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
                    angles: Optional[Mapping[str, float]] = None) -> ProtocolSpec:
    """Return a protocol, given by registry id or as a spec, with the given step
    number and angles bound; what is not given keeps its current value."""
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
    return spec.with_params(T=T, **dict(angles or {}))


def step_independent_reduction(spec: ProtocolSpec) -> ProtocolSpec:
    """Rewrite the spec to step number 1 (the step-independent-coin walk)."""
    return replace(spec, T=1)


def _as_momenta(spec: ProtocolSpec, k) -> Tuple[np.ndarray, ...]:
    """Per-axis momentum components: views k[..., i] of an (..., dim) array, or
    a list/tuple of dim broadcastable ndarrays (an open mesh) as given."""
    dim = spec.dimension
    if isinstance(k, (list, tuple)) and k and all(isinstance(x, np.ndarray) for x in k):
        if len(k) != dim:
            raise InvalidInputError(f"an open momentum mesh for {spec.id!r} needs {dim}"
                                    f" axis arrays, got {len(k)}")
        return tuple(np.asarray(x, dtype=float) for x in k)
    k = np.asarray(k, dtype=float)
    if dim == 1 and (k.ndim == 0 or k.shape[-1] != 1):
        k = k[..., None]
    if k.ndim == 0 or k.shape[-1] != dim:
        raise InvalidInputError(
            f"momentum must have trailing dimension {dim} for {spec.id!r},"
            f" got shape {k.shape}")
    return tuple(k[..., i] for i in range(dim))


def _coin_entries(el: Coin, spec: ProtocolSpec, angles, T):
    """The entries of exp(-i T theta/2 axis.sigma), scalars or arrays like theta and T."""
    try:
        theta = angles[el.symbol]
    except KeyError:
        raise InvalidInputError(f"angle {el.symbol!r} missing for protocol {spec.id!r}") from None
    nx, ny, nz = unit_axis(el.axis)
    eff = T * np.asarray(theta, dtype=float)
    if not np.isfinite(eff).all():
        raise InvalidInputError("rotation angle must be finite")
    half = 0.5 * eff
    cos, msin = np.cos(half), -1j * np.sin(half)
    return (cos + msin * nz, msin * (nx - 1j * ny), msin * (nx + 1j * ny), cos - msin * nz)


@dataclass(frozen=True, eq=False)
class Plan:
    """A protocol's two-band walk compiled for evaluation at any momenta.

    `steps` holds, in application order, ("coin", (c00, c01, c10, c11)) with
    a coin's SU(2) entries, and ("shift", terms) for a run of adjacent shifts
    merged into one: the (axis, m) terms of its SU(2) phase exp(i m.k), m
    integer or half-integer.
    """

    spec: ProtocolSpec
    steps: Tuple[tuple, ...]

    def _walk(self, ks, grad: bool):
        """The step loop over momentum components `ks`: (a, c) with
        U(k) = [[a, -conj(c)], [c, conj(a)]] and, with `grad`, per momentum
        axis i the row d(a, c)/dk_i.  A coin mixes the derivative rows as it
        mixes the values.  Only the shifts carry k: a phase p = exp(i m.k)
        takes (a, c) to (a p, c conj(p)) and the derivatives to
        ((a' + i m_i a) p, (c' - i m_i c) conj(p))."""
        phasors = {t: np.exp(1j * (t[1] * ks[t[0]]))
                   for kind, data in self.steps if kind == "shift" for t in data}
        a, c = 1.0, 0.0
        grads = [(0.0, 0.0)] * self.spec.dimension if grad else []
        for kind, data in self.steps:
            if kind == "coin":
                c00, c01, c10, c11 = data
                a, c = c00 * a + c01 * c, c10 * a + c11 * c
                if grads:
                    grads = [(c00 * da + c01 * dc, c10 * da + c11 * dc) for da, dc in grads]
                continue
            p = phasors[data[0]]
            for term in data[1:]:
                p = p * phasors[term]
            q = p.conj()
            if grads:
                for ax, m in data:
                    da, dc = grads[ax]
                    grads[ax] = (da + 1j * m * a, dc - 1j * m * c)
                grads = [(da * p, dc * q) for da, dc in grads]
            a, c = a * p, c * q
        return (a, c), grads

    def fourier(self):
        """(a, c) as trigonometric polynomials in k: per entry, the frequencies
        of each momentum axis, freqs[ax] of length F_ax, and the coefficients
        coef (..., F_0, ..., F_dim-1), the coins' shape first, with
        entry(k) = sum_j coef[..., j] prod_ax exp(i freqs[ax][j_ax] k_ax).
        Which frequencies occur depends only on the shifts, so their
        bookkeeping is done once per protocol (`_layout`); per call
        only the coins mix the coefficient arrays, as the step loop mixes
        values.  Each array carries a zero slot last, which the gathers read
        for frequencies an entry lacks."""
        gathers, grids = _layout(self.spec.elements, self.spec.dimension)[2:]
        a, c = np.array([1.0, 0.0], dtype=complex), np.zeros(1, dtype=complex)
        coins = (data for kind, data in self.steps if kind == "coin")
        for (ia, ic), entries in zip(gathers, coins):
            c00, c01, c10, c11 = (np.asarray(x)[..., None] for x in entries)
            ga, gc = a[..., ia], c[..., ic]
            a, c = c00 * ga + c01 * gc, c10 * ga + c11 * gc
        return tuple((freqs, x[..., dense].reshape(x.shape[:-1] + tuple(map(len, freqs))))
                     for (freqs, dense), x in zip(grids, (a, c)))

    def entries(self, k):
        """(a, c) with U(k) = [[a, -conj(c)], [c, conj(a)]], updated elementwise
        along the steps: a coin mixes the pair, a shift scales it by its phases.
        `k` is an (..., dim) batch or an open mesh of dim axis arrays."""
        return self._walk(_as_momenta(self.spec, k), grad=False)[0]

    def entries_and_grad(self, k):
        """(a, c) and, per momentum axis i, the exact d(a, c)/dk_i, from the
        same step loop as `entries`."""
        return self._walk(_as_momenta(self.spec, k), grad=True)

    def unitary(self, k) -> np.ndarray:
        """U(k) of the two-band walk as a (..., 2, 2) array over the momentum batch."""
        ks = _as_momenta(self.spec, k)
        a, c = np.broadcast_arrays(*self._walk(ks, grad=False)[0], *ks)[:2]
        return np.stack([a, -c.conj(), c, a.conj()], axis=-1).reshape(a.shape + (2, 2))


@lru_cache(maxsize=64)
def _layout(elements: tuple, dim: int):
    """A protocol's shift bookkeeping, done once: `compile_plan`'s steps with
    each run of shifts as the (axis, m) terms of its SU(2) phase, the per-axis
    sums of the shifts' up + down phases, and, for `Plan.fourier` (a shift by m
    moves a's frequencies by +m and c's by -m; a coin puts both on their union),
    per coin the gathers of a and c onto that union and per entry its sorted
    frequencies per axis and the gather onto their grid (-1: the zero slot)."""
    steps, det_phase, gathers, fa, fc = [], [0] * dim, [], [(0.0,) * dim], []
    for is_coin, run in groupby(elements, key=lambda el: isinstance(el, Coin)):
        run = list(run)
        if is_coin:
            for _ in run:
                union = sorted(set(fa) | set(fc))
                gathers.append(tuple(_frozen([f.index(u) if u in f else -1 for u in union] + [-1])
                                     for f in (fa, fc)))
                fa = fc = union
            steps += run
            continue
        up = [sum(n) for n in zip(*(el.up for el in run))]
        down = [sum(n) for n in zip(*(el.down for el in run))]
        det_phase = [t + u + v for t, u, v in zip(det_phase, up, down)]
        m = [(u - v) / 2 for u, v in zip(up, down)]
        if any(m):
            steps.append(tuple((ax, x) for ax, x in enumerate(m) if x))
            fa = [tuple(x + y for x, y in zip(f, m)) for f in fa]
            fc = [tuple(x - y for x, y in zip(f, m)) for f in fc]
    grids = []
    for f in (fa, fc):
        freqs = [sorted({g[ax] for g in f}) or [0.0] for ax in range(dim)]
        dense = [f.index(g) if g in f else -1 for g in product(*freqs)]
        grids.append((tuple(map(_frozen, freqs)), _frozen(dense)))
    return tuple(steps), tuple(det_phase), tuple(gathers), tuple(grids)


def _frozen(values) -> np.ndarray:
    """A read-only array of `values`: the cached layout hands it to every caller."""
    out = np.array(values)
    out.flags.writeable = False
    return out


def compile_plan(spec: ProtocolSpec, *, angles: Optional[Mapping] = None, T=None) -> Plan:
    """Compile the spec's two-band walk once; `angles` and `T` override the
    bound values as in `build_unitary`.  The coins are SU(2), so the walk is
    special-unitary iff, on every axis, the shifts' up + down phases sum to
    0; any other walk is rejected, which lets the Bloch split skip the
    determinant."""
    ang = _merged_angles(spec, angles)
    T_eff = _step_number(spec.T if T is None else T)
    layout, det_phase = _layout(spec.elements, spec.dimension)[:2]
    if any(det_phase):
        raise InvalidInputError(f"{spec.id!r} is not special-unitary: its shifts' up + down"
                                f" phases sum to {list(det_phase)} per axis, not 0")
    return Plan(spec=spec, steps=tuple(
        ("coin", _coin_entries(step, spec, ang, T_eff)) if isinstance(step, Coin)
        else ("shift", step) for step in layout))


def build_unitary(spec: ProtocolSpec, k, *, angles: Optional[Mapping] = None,
                  T=None) -> np.ndarray:
    """Momentum-space one-step unitary U(k); batched over leading axes of k,
    an (..., dim) batch or an open mesh of dim axis arrays.  The U(-k) blocks
    of a four-band walk negate the per-axis components of either.

    `angles` values and `T` may be arrays broadcastable against the momentum
    batch shape (useful for random-sample sweeps).  They default to the values
    bound in the spec; an angle the protocol does not use is rejected.  The
    two-band blocks are packed from the entries of the compiled plan.
    """
    plan = compile_plan(spec, angles=angles, T=T)
    ks = _as_momenta(spec, k)
    Uk = plan.unitary(ks)
    if spec.doubled is None:
        return Uk
    Um = plan.unitary(tuple(-x for x in ks))
    if spec.doubled == "transpose_block":
        return block_diag2(Uk, np.swapaxes(Um, -1, -2))
    if spec.doubled == "conjugate_block":
        return block_diag2(Uk, Um.conj())
    if spec.doubled == "trs_sandwich":
        eye = np.broadcast_to(np.eye(2, dtype=complex), Uk.shape)
        left = block_diag2(Uk, eye)
        right = block_diag2(eye, np.swapaxes(Um, -1, -2))
        return left @ SANDWICH_WALL @ right
    raise InvalidInputError(f"unknown doubling {spec.doubled!r}")
