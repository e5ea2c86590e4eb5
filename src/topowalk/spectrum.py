"""Quasi-energy bands, Bloch decomposition, and group velocities.

* The production *plan* route: `bloch` reads d0 = Re a, d = (-Im c, Re c,
  -Im a) off the entries (a, c) of the special-unitary compiled plan,
  U = [[a, -conj(c)], [c, conj(a)]] = d0 I - i d.sigma (E = arccos(d0),
  n = d/|d|); `bands_with_velocity` adds dE/dk_i from the plan's exact
  k-derivative.  Every two-band consumer reads (d0, d) this way;
* protocol-specific *analytic* forms rho(k), d(k), and dE/dk_i, hand-derived
  from the element products (see scripts/verify_closed_forms.py for the exact
  symbolic verification of every formula); they are the checked reference.

`bands_from_unitary` (`bloch_split`) factors the determinant phase out of
any 2x2 unitary and splits all four entries by its own formula; the tests
hold the plan route to its split of their matrix-exponential U(k), and the
closed forms to the plan.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import GaplessError, InvalidInputError, UnsupportedProtocolError
from .protocols import REGISTRY, Plan, _as_momenta, _integer, compile_plan, registry_lookup

EPS_GAP = 1e-9  # |d| at or below this counts as a gap closing


def bloch_entries(a, c):
    """(d0, (d_x, d_y, d_z)) of U = [[a, -conj(c)], [c, conj(a)]] = d0 I - i d.sigma,
    read off the plan's entries elementwise."""
    return a.real, (-c.imag, c.real, -a.imag)


def bloch_split(U):
    """(d0, d, phase) for batched 2x2 unitaries, U = e^{i phase}(d0 I - i d.sigma);
    the phase is half the determinant's argument."""
    U = np.asarray(U, dtype=complex)
    if U.shape[-2:] != (2, 2):
        raise InvalidInputError(f"expected 2x2 unitaries, got shape {U.shape}")
    a, b, c, d = U[..., 0, 0], U[..., 0, 1], U[..., 1, 0], U[..., 1, 1]
    phase = 0.5 * np.angle(a * d - b * c)
    w = np.exp(-1j * phase)
    a, b, c, d = a * w, b * w, c * w, d * w
    dvec = np.stack([-0.5 * (b + c).imag, -0.5 * (b - c).real, -0.5 * (a - d).imag], axis=-1)
    return 0.5 * (a + d).real, dvec, phase


@dataclass
class Bands:
    """Bloch decomposition and + band energy on a batch of momenta; `phase` is
    0 on the plan route, whose walks are special-unitary."""

    d0: np.ndarray
    d: np.ndarray
    e_plus: np.ndarray
    phase: np.ndarray = 0.0


def bands_from_unitary(U) -> Bands:
    """Decomposition of any 2x2 unitaries into (d0, d, e_plus) (`bloch_split`)."""
    d0, d, phase = bloch_split(U)
    return Bands(d0=d0, d=d, e_plus=np.arccos(np.clip(d0, -1.0, 1.0)), phase=phase)


def two_band_plan(spec_or_id, *, angles=None, T=None) -> Plan:
    """The compiled plan of a two-band walk; four-band walks have no Bloch
    split and are rejected.  `angles` and `T` override the spec's values for
    this call and may be arrays broadcastable against the momentum batch shape."""
    spec = registry_lookup(spec_or_id)
    if spec.bands != 2:
        raise UnsupportedProtocolError(f"{spec.id!r} is a four-band protocol; expected two bands")
    return compile_plan(spec, angles=angles, T=T)


def bloch(spec_or_id, k, *, angles=None, T=None) -> Bands:
    """(d0, d, e_plus) of a two-band walk at momenta k, read from its compiled
    plan; `angles` and `T` as in `two_band_plan`."""
    d0, d = bloch_entries(*two_band_plan(spec_or_id, angles=angles, T=T).entries(k))
    return Bands(d0=d0, d=np.stack(d, axis=-1), e_plus=np.arccos(np.clip(d0, -1.0, 1.0)))


def bands_with_velocity(spec_or_id, k, *, angles=None, T=None):
    """(e_plus, |d|, v) of a two-band walk from one pass of its compiled plan.

    v[..., i] = dE_+/dk_i = -(d d0/dk_i)/|d| with d0 = Re a, read from the
    exact k-derivative of the entries; NaN exactly where the gap is closed,
    |d| <= EPS_GAP, so a caller reads the gap rule from the NaN.
    `angles` and `T` as in `two_band_plan`.
    """
    entries, grads = two_band_plan(spec_or_id, angles=angles, T=T).entries_and_grad(k)
    d0, (dx, dy, dz) = bloch_entries(*entries)
    norm = np.sqrt(dx * dx + dy * dy + dz * dz)
    safe = np.where(norm > EPS_GAP, norm, np.nan)
    v = np.stack([-da.real / safe for da, _ in grads], axis=-1)
    return np.arccos(np.clip(d0, -1.0, 1.0)), norm, v


# -- analytic closed forms -----------------------------------------------------
#
# kappa_j = cos(T j / 2), lambda_j = sin(T j / 2) for each rotation angle j.
# Every rho/d/velocity below is the exact trace expansion of the element
# product; scripts/verify_closed_forms.py re-derives each one symbolically
# and is the authority in case of doubt.


def _coeffs(angles, T, pid, *symbols):
    """kappa_j, lambda_j of each angle symbol j in turn, flattened."""
    out = []
    for s in symbols:
        try:
            half = 0.5 * np.multiply(T, np.asarray(angles[s], dtype=float))
        except KeyError:
            raise InvalidInputError(f"angle {s!r} required for {pid!r}") from None
        out += [np.cos(half), np.sin(half)]
    return out


def _rho_1d_phs(angles, T, kx):
    ka, la, kb, lb = _coeffs(angles, T, "1d-phs", "alpha", "beta")
    return ka * kb * np.cos(2 * kx) - la * lb * np.cos(kx)


def _d_1d_phs(angles, T, kx):
    ka, la, kb, lb = _coeffs(angles, T, "1d-phs", "alpha", "beta")
    dx = -la * kb * np.sin(kx)
    dy = la * kb * np.cos(kx) + ka * lb
    dz = la * lb * np.sin(kx) - 2 * ka * kb * np.cos(kx) * np.sin(kx)
    return np.stack(np.broadcast_arrays(dx, dy, dz), axis=-1)


def _drho_1d_phs(angles, T, axis, kx):
    ka, la, kb, lb = _coeffs(angles, T, "1d-phs", "alpha", "beta")
    return -2 * ka * kb * np.sin(2 * kx) + la * lb * np.sin(kx)


def _rho_1d_chs(angles, T, kx):
    ka, la, kb, lb = _coeffs(angles, T, "1d-chs", "alpha", "beta")
    s_ab = la * kb + ka * lb  # sin(T(alpha+beta)/2)
    return (-0.5 * la * lb * (1 + np.cos(kx)) + ka * kb * np.cos(kx)
            + s_ab * np.sin(kx) / np.sqrt(2))


def _d_1d_chs(angles, T, kx):
    ka, la, kb, lb = _coeffs(angles, T, "1d-chs", "alpha", "beta")
    s_ab = la * kb + ka * lb
    dx = 0.5 * lb * (np.sqrt(2) * ka * np.sin(kx) + la * (1 - np.cos(kx)))
    dy = la * kb / np.sqrt(2) + 0.5 * lb * (la * np.sin(kx) + np.sqrt(2) * ka * np.cos(kx))
    # the -2 kappa kappa term carries sin(kx); dropping it breaks A.n = 0
    dz = 0.5 * (la * lb * np.sin(kx) - 2 * ka * kb * np.sin(kx)) + s_ab * np.cos(kx) / np.sqrt(2)
    return np.stack(np.broadcast_arrays(dx, dy, dz), axis=-1)


def _drho_1d_chs(angles, T, axis, kx):
    return _d_1d_chs(angles, T, kx)[..., 2]


def _rho_2d_phs(angles, T, kx, ky):
    ka, la = _coeffs(angles, T, "2d-phs", "alpha")
    cb, sb = _coeffs(angles, np.multiply(2, T), "2d-phs", "beta")  # two beta coins per period
    return (ka * (cb * np.cos(kx) * np.cos(kx + 2 * ky) - np.sin(kx) * np.sin(kx + 2 * ky))
            - la * sb * np.cos(kx) ** 2)


def _d_2d_phs(angles, T, kx, ky):
    ka, la, kb, lb = _coeffs(angles, T, "2d-phs", "alpha", "beta")
    dx = 2 * lb * np.sin(kx) * (ka * kb * np.cos(kx + 2 * ky) - la * lb * np.cos(kx))
    dy = (la * kb ** 2 - la * lb ** 2 * np.cos(2 * kx)
          + 2 * ka * kb * lb * np.cos(kx) * np.cos(kx + 2 * ky))
    dz = (la * kb * lb * np.sin(2 * kx)
          - ka * (kb ** 2 * np.sin(2 * (kx + ky)) + lb ** 2 * np.sin(2 * ky)))
    return np.stack(np.broadcast_arrays(dx, dy, dz), axis=-1)


def _drho_2d_phs(angles, T, axis, kx, ky):
    ka, la = _coeffs(angles, T, "2d-phs", "alpha")
    cb, sb = _coeffs(angles, np.multiply(2, T), "2d-phs", "beta")
    if axis == 0:
        return -ka * (1 + cb) * np.sin(2 * kx + 2 * ky) + la * sb * np.sin(2 * kx)
    return -2 * ka * (cb * np.cos(kx) * np.sin(kx + 2 * ky) + np.sin(kx) * np.cos(kx + 2 * ky))


def _rho_2d_nosym(angles, T, kx, ky):
    ka, la, kb, lb, kg, lg = _coeffs(angles, T, "2d-nosym", "alpha", "beta", "gamma")
    r2 = np.sqrt(2)
    return (r2 * la / 2 * (kb * kg * np.sin(2 * kx + 2 * ky) - lb * kg
                           - kb * lg * np.cos(2 * ky) - lb * lg * np.sin(2 * kx))
            + ka * (kb * kg * np.cos(2 * kx + 2 * ky) - lb * lg * np.cos(2 * kx)))


def _d_2d_nosym(angles, T, kx, ky):
    ka, la, kb, lb, kg, lg = _coeffs(angles, T, "2d-nosym", "alpha", "beta", "gamma")
    r2 = np.sqrt(2)
    dx = (r2 * la / 2 * (kb * lg * np.cos(2 * kx) - lb * kg * np.cos(2 * kx + 2 * ky)
                         - lb * lg * np.sin(2 * ky))
          + ka * (lb * kg * np.sin(2 * kx + 2 * ky) - kb * lg * np.sin(2 * kx)))
    dy = (r2 * la / 2 * (kb * kg + kb * lg * np.sin(2 * kx)
                         + lb * kg * np.sin(2 * kx + 2 * ky) - lb * lg * np.cos(2 * ky))
          + ka * (kb * lg * np.cos(2 * kx) + lb * kg * np.cos(2 * kx + 2 * ky)))
    dz = (r2 * la / 2 * (kb * kg * np.cos(2 * kx + 2 * ky) + kb * lg * np.sin(2 * ky)
                         + lb * lg * np.cos(2 * kx))
          - ka * (lb * lg * np.sin(2 * kx) + kb * kg * np.sin(2 * kx + 2 * ky)))
    return np.stack(np.broadcast_arrays(dx, dy, dz), axis=-1)


def _drho_2d_nosym(angles, T, axis, kx, ky):
    ka, la, kb, lb, kg, lg = _coeffs(angles, T, "2d-nosym", "alpha", "beta", "gamma")
    r2 = np.sqrt(2)
    if axis == 0:
        return (r2 * la * (kb * kg * np.cos(2 * kx + 2 * ky) - lb * lg * np.cos(2 * kx))
                + 2 * ka * (lb * lg * np.sin(2 * kx) - kb * kg * np.sin(2 * kx + 2 * ky)))
    return (r2 * la * kb * (kg * np.cos(2 * kx + 2 * ky) + lg * np.sin(2 * ky))
            - 2 * ka * kb * kg * np.sin(2 * kx + 2 * ky))


def _rho_3d_simple(angles, T, *k):
    kb, lb = _coeffs(angles, T, "3d-simple", "beta")
    K = sum(k)
    return kb * np.cos(K)


def _d_3d_simple(angles, T, *k):
    kb, lb = _coeffs(angles, T, "3d-simple", "beta")
    K = sum(k)
    return np.stack(np.broadcast_arrays(lb * np.sin(K), lb * np.cos(K), -kb * np.sin(K)), axis=-1)


def _drho_3d_simple(angles, T, axis, *k):
    kb, lb = _coeffs(angles, T, "3d-simple", "beta")
    K = sum(k)
    return -kb * np.sin(K)


def _rho_3d_split(angles, T, x, y, z):
    ka, la, kb, lb, kg, lg = _coeffs(angles, T, "3d-split", "alpha", "beta", "gamma")
    return (ka * kb * kg * np.cos(x + y + z) - kg * la * lb * np.cos(x - y - z)
            - lg * la * kb * np.cos(x - y + z) - lg * ka * lb * np.cos(x + y - z))


def _d_3d_split(angles, T, x, y, z):
    ka, la, kb, lb, kg, lg = _coeffs(angles, T, "3d-split", "alpha", "beta", "gamma")
    dx = (lb * (ka * kg * np.sin(x + y + z) - la * lg * np.sin(x - y + z))
          - kb * (la * kg * np.sin(x - y - z) + ka * lg * np.sin(x + y - z)))
    dy = (kb * (la * kg * np.cos(x - y - z) + ka * lg * np.cos(x + y - z))
          + lb * (ka * kg * np.cos(x + y + z) - la * lg * np.cos(x - y + z)))
    dz = (lg * (la * kb * np.sin(x - y + z) - ka * lb * np.sin(x + y - z))
          - kg * (la * lb * np.sin(x - y - z) + ka * kb * np.sin(x + y + z)))
    return np.stack(np.broadcast_arrays(dx, dy, dz), axis=-1)


def _drho_3d_split(angles, T, axis, x, y, z):
    ka, la, kb, lb, kg, lg = _coeffs(angles, T, "3d-split", "alpha", "beta", "gamma")
    c1, c2, c3, c4 = ka * kb * kg, kg * la * lb, lg * la * kb, lg * ka * lb
    signs = {0: (1, 1, 1), 1: (-1, -1, 1), 2: (-1, 1, -1)}[axis]
    return (-c1 * np.sin(x + y + z) + signs[0] * c2 * np.sin(x - y - z)
            + signs[1] * c3 * np.sin(x - y + z) + signs[2] * c4 * np.sin(x + y - z))


def _rho_3d_phs(angles, T, x, y, z):
    ka, la, kb, lb, kg, lg, kz, lz = _coeffs(angles, T, "3d-phs",
                                             "alpha", "beta", "gamma", "zeta")
    return (ka * kb * (kg * kz * np.cos(2 * (x + y + z)) - lg * lz * np.cos(2 * (x + z)))
            - ka * lb * (lg * kz * np.cos(2 * x) + kg * lz * np.cos(2 * (x + y)))
            - la * kb * (lg * kz * np.cos(2 * (y + z)) + kg * lz * np.cos(2 * z))
            - la * lb * (kg * kz - lg * lz * np.cos(2 * y)))


def _d_3d_phs(angles, T, x, y, z):
    ka, la, kb, lb, kg, lg, kz, lz = _coeffs(angles, T, "3d-phs",
                                             "alpha", "beta", "gamma", "zeta")
    dx = (-ka * kb * lg * kz * np.sin(2 * x) - ka * kb * kg * lz * np.sin(2 * (x + y))
          + ka * lb * kg * kz * np.sin(2 * (x + y + z)) - ka * lb * lg * lz * np.sin(2 * (x + z))
          + la * kb * lg * lz * np.sin(2 * y) - la * lb * lg * kz * np.sin(2 * (y + z))
          - la * lb * kg * lz * np.sin(2 * z))
    dy = (la * kb * kg * kz + ka * kb * lg * kz * np.cos(2 * x)
          + ka * kb * kg * lz * np.cos(2 * (x + y)) + ka * lb * kg * kz * np.cos(2 * (x + y + z))
          - ka * lb * lg * lz * np.cos(2 * (x + z)) - la * kb * lg * lz * np.cos(2 * y)
          - la * lb * lg * kz * np.cos(2 * (y + z)) - la * lb * kg * lz * np.cos(2 * z))
    dz = (ka * kb * lg * lz * np.sin(2 * (x + z)) + la * lb * lg * lz * np.sin(2 * y)
          + la * kb * lg * kz * np.sin(2 * (y + z)) + la * kb * kg * lz * np.sin(2 * z)
          - ka * lb * lg * kz * np.sin(2 * x) - ka * lb * kg * lz * np.sin(2 * (x + y))
          - ka * kb * kg * kz * np.sin(2 * (x + y + z)))
    return np.stack(np.broadcast_arrays(dx, dy, dz), axis=-1)


def _drho_3d_phs(angles, T, axis, x, y, z):
    ka, la, kb, lb, kg, lg, kz, lz = _coeffs(angles, T, "3d-phs",
                                             "alpha", "beta", "gamma", "zeta")
    if axis == 0:
        return 2 * ka * (lb * lg * kz * np.sin(2 * x) + lb * kg * lz * np.sin(2 * (x + y))
                         - kb * kg * kz * np.sin(2 * (x + y + z))
                         + kb * lg * lz * np.sin(2 * (x + z)))
    if axis == 1:
        return 2 * (ka * lb * kg * lz * np.sin(2 * (x + y))
                    - ka * kb * kg * kz * np.sin(2 * (x + y + z))
                    - la * lb * lg * lz * np.sin(2 * y)
                    + la * kb * lg * kz * np.sin(2 * (y + z)))
    return 2 * kb * (ka * lg * lz * np.sin(2 * (x + z)) + la * lg * kz * np.sin(2 * (y + z))
                     + la * kg * lz * np.sin(2 * z) - ka * kg * kz * np.sin(2 * (x + y + z)))


def _rho_3d_chs(angles, T, x, y, z):
    ka, la, kb, lb, kg, lg = _coeffs(angles, T, "3d-chs", "alpha", "beta", "gamma")
    r8 = 2 * np.sqrt(2)
    p1 = 2 * la * kb * kg + 2 * ka * lb * kg + 2 * ka * kb * lg - la * lb * lg
    p2 = 2 * ka * kb * kg - la * lb * kg - la * kb * lg - ka * lb * lg
    return (p1 * np.sin(x + y + z) / r8
            - 0.5 * (la * lb * kg * np.cos(x - y - z) + ka * lb * lg * np.cos(x + y - z)
                     + la * kb * lg * np.cos(x - y + z))
            + 0.5 * p2 * np.cos(x + y + z)
            + (np.sin(x - y - z) - np.sin(x + y - z) - np.sin(x - y + z)) * la * lb * lg / r8)


def _d_3d_chs(angles, T, x, y, z):
    ka, la, kb, lb, kg, lg = _coeffs(angles, T, "3d-chs", "alpha", "beta", "gamma")
    r8 = 2 * np.sqrt(2)
    lll = la * lb * lg
    dx = ((lll - 2 * ka * kb * lg) * np.sin(x + y - z) / r8
          - (2 * la * kb * kg + lll) * np.sin(x - y - z) / r8
          + (2 * ka * lb * kg - lll) * np.sin(x + y + z) / r8
          - lll * np.sin(x - y + z) / r8
          + (ka * lb * lg + la * kb * lg) * np.cos(x + y - z) / 2
          + (la * lb * kg - la * kb * lg) * np.cos(x - y - z) / 2
          - (la * lb * kg + ka * lb * lg) * np.cos(x + y + z) / 2)
    dy = ((la * kb * lg + ka * lb * lg) * np.sin(x + y - z) / 2
          + (la * lb * kg - la * kb * lg) * np.sin(x - y - z) / 2
          + (la * lb * kg + ka * lb * lg) * np.sin(x + y + z) / 2
          + (2 * ka * lb * kg - lll) * np.cos(x + y + z) / r8
          + (2 * la * kb * kg + lll) * np.cos(x - y - z) / r8
          + (2 * ka * kb * lg - lll) * np.cos(x + y - z) / r8
          - lll * np.cos(x - y + z) / r8)
    dz = (0.5 * (la * kb * lg * np.sin(x - y + z) - la * lb * kg * np.sin(x - y - z)
                 - ka * lb * lg * np.sin(x + y - z))
          + (la * lb * kg + la * kb * lg + ka * lb * lg - 2 * ka * kb * kg)
          * np.sin(x + y + z) / 2
          + (2 * la * kb * kg + 2 * ka * lb * kg + 2 * ka * kb * lg - lll)
          * np.cos(x + y + z) / r8
          + (np.cos(x + y - z) - np.cos(x - y - z) - np.cos(x - y + z)) * lll / r8)
    return np.stack(np.broadcast_arrays(dx, dy, dz), axis=-1)


def _drho_3d_chs(angles, T, axis, x, y, z):
    ka, la, kb, lb, kg, lg = _coeffs(angles, T, "3d-chs", "alpha", "beta", "gamma")
    r8 = 2 * np.sqrt(2)
    lll = la * lb * lg
    p1 = 2 * la * kb * kg + 2 * ka * lb * kg + 2 * ka * kb * lg - lll
    p2 = 2 * ka * kb * kg - la * lb * kg - la * kb * lg - ka * lb * lg
    ca, cb, cc = la * lb * kg, ka * lb * lg, la * kb * lg
    sa, sb, sc = {0: (1, 1, 1), 1: (-1, 1, -1), 2: (-1, -1, 1)}[axis]
    ta, tb, tc = {0: (1, -1, -1), 1: (-1, -1, 1), 2: (-1, 1, -1)}[axis]
    return (p1 * np.cos(x + y + z) / r8 - 0.5 * p2 * np.sin(x + y + z)
            + 0.5 * (sa * ca * np.sin(x - y - z) + sb * cb * np.sin(x + y - z)
                     + sc * cc * np.sin(x - y + z))
            + (ta * np.cos(x - y - z) + tb * np.cos(x + y - z)
               + tc * np.cos(x - y + z)) * lll / r8)


def _rho_3d_nosym(angles, T, x, y, z):
    ka, la, kb, lb, kg, lg, kz, lz = _coeffs(angles, T, "3d-nosym",
                                             "alpha", "beta", "gamma", "zeta")
    r2 = np.sqrt(2)
    return (ka * kb * kg * kz * np.cos(2 * (x + y + z))
            + la * kb * kg * kz * np.sin(2 * (x + y + z)) / r2
            + (lz * np.cos(2 * y) - kz * np.sin(2 * x)) * la * lb * lg / r2
            - la * lb * kg * kz / r2
            - ka * lb * lg * kz * np.cos(2 * x)
            - ka * lb * kg * lz * np.cos(2 * (x + y))
            - ka * kb * lg * lz * np.cos(2 * (x + z))
            - la / r2 * (lb * kg * lz * np.sin(2 * (x + y)) + kb * lg * lz * np.sin(2 * (x + z))
                         + kb * lg * kz * np.cos(2 * (y + z)) + kb * kg * lz * np.cos(2 * z)))


def _d_3d_nosym(angles, T, x, y, z):
    ka, la, kb, lb, kg, lg, kz, lz = _coeffs(angles, T, "3d-nosym",
                                             "alpha", "beta", "gamma", "zeta")
    r2 = np.sqrt(2)
    dx = (ka * lb * kg * kz * np.sin(2 * (x + y + z))
          - la * lb * kg * kz * np.cos(2 * (x + y + z)) / r2
          - ka * kb * kg * lz * np.sin(2 * (x + y))
          + la * lb * lg / r2 * (lz * np.cos(2 * (x + z)) - kz * np.sin(2 * (y + z)))
          - ka * lb * lg * lz * np.sin(2 * (x + z))
          - ka * kb * lg * kz * np.sin(2 * x)
          + la / r2 * (kb * lg * kz * np.cos(2 * x) + kb * lg * lz * np.sin(2 * y)
                       - lb * kg * lz * np.sin(2 * z) + kb * kg * lz * np.cos(2 * (x + y))))
    dy = (la * lb * kg * kz * np.sin(2 * (x + y + z)) / r2
          + ka * lb * kg * kz * np.cos(2 * (x + y + z))
          + la * kb * kg * kz / r2
          + ka * kb * lg * kz * np.cos(2 * x)
          - la * lb * lg / r2 * (lz * np.sin(2 * (x + z)) + kz * np.cos(2 * (y + z)))
          + ka * kb * kg * lz * np.cos(2 * (x + y))
          - ka * lb * lg * lz * np.cos(2 * (x + z))
          + la / r2 * (kb * kg * lz * np.sin(2 * (x + y)) + kb * lg * kz * np.sin(2 * x)
                       - kb * lg * lz * np.cos(2 * y) - lb * kg * lz * np.cos(2 * z)))
    dz = (la * kb * kg * kz * np.cos(2 * (x + y + z)) / r2
          - ka * kb * kg * kz * np.sin(2 * (x + y + z))
          + (kz * np.cos(2 * x) + lz * np.sin(2 * y)) * la * lb * lg / r2
          + ka * kb * lg * lz * np.sin(2 * (x + z))
          - ka * lb * lg * kz * np.sin(2 * x)
          - ka * lb * kg * lz * np.sin(2 * (x + y))
          + la / r2 * (lb * kg * lz * np.cos(2 * (x + y)) - kb * lg * lz * np.cos(2 * (x + z))
                       + kb * lg * kz * np.sin(2 * (y + z)) + kb * kg * lz * np.sin(2 * z)))
    return np.stack(np.broadcast_arrays(dx, dy, dz), axis=-1)


def _drho_3d_nosym(angles, T, axis, x, y, z):
    ka, la, kb, lb, kg, lg, kz, lz = _coeffs(angles, T, "3d-nosym",
                                             "alpha", "beta", "gamma", "zeta")
    r2 = np.sqrt(2)
    common = (-2 * ka * kb * kg * kz * np.sin(2 * (x + y + z))
              + r2 * la * kb * kg * kz * np.cos(2 * (x + y + z)))
    if axis == 0:
        return (common
                - r2 * la * lb * lg * kz * np.cos(2 * x)
                + 2 * ka * lb * lg * kz * np.sin(2 * x)
                + 2 * ka * lb * kg * lz * np.sin(2 * (x + y))
                + 2 * ka * kb * lg * lz * np.sin(2 * (x + z))
                - r2 * la * (lb * kg * lz * np.cos(2 * (x + y))
                             + kb * lg * lz * np.cos(2 * (x + z))))
    if axis == 1:
        return (common
                - r2 * la * lb * lg * lz * np.sin(2 * y)
                + 2 * ka * lb * kg * lz * np.sin(2 * (x + y))
                - r2 * la * lb * kg * lz * np.cos(2 * (x + y))
                + r2 * la * kb * lg * kz * np.sin(2 * (y + z)))
    return (common
            + 2 * ka * kb * lg * lz * np.sin(2 * (x + z))
            - r2 * la * kb * lg * lz * np.cos(2 * (x + z))
            + r2 * la * kb * lg * kz * np.sin(2 * (y + z))
            + r2 * la * kb * kg * lz * np.sin(2 * z))


# registry id -> (rho, d, drho) of its closed forms
_CLOSED_FORMS = {
    "1d-phs": (_rho_1d_phs, _d_1d_phs, _drho_1d_phs),
    "1d-chs": (_rho_1d_chs, _d_1d_chs, _drho_1d_chs),
    "2d-phs": (_rho_2d_phs, _d_2d_phs, _drho_2d_phs),
    "2d-nosym": (_rho_2d_nosym, _d_2d_nosym, _drho_2d_nosym),
    "3d-simple": (_rho_3d_simple, _d_3d_simple, _drho_3d_simple),
    "3d-split": (_rho_3d_split, _d_3d_split, _drho_3d_split),
    "3d-phs": (_rho_3d_phs, _d_3d_phs, _drho_3d_phs),
    "3d-chs": (_rho_3d_chs, _d_3d_chs, _drho_3d_chs),
    "3d-nosym": (_rho_3d_nosym, _d_3d_nosym, _drho_3d_nosym),
}
CLOSED_FORM_IDS = tuple(_CLOSED_FORMS)


def _closed_form(which: int, pid: str, angles: Mapping, T, k, *axis):
    """The closed form `which` (0 rho, 1 d, 2 drho) of `pid`, given the momentum
    components of k and, for drho, the axis index."""
    try:
        form = _CLOSED_FORMS[pid][which]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise UnsupportedProtocolError(f"no analytic form registered for {pid!r};"
                                       f" available: {sorted(_CLOSED_FORMS)}") from None
    spec = REGISTRY[pid]
    return form(angles, T, *[_integer("axis", a, 0, spec.dimension) for a in axis],
                *_as_momenta(spec, k))


def rho_closed_form(pid: str, angles: Mapping, T, k):
    """Analytic cos(E_+) for the registered two-band protocols."""
    return _closed_form(0, pid, angles, T, k)


def d_closed_form(pid: str, angles: Mapping, T, k):
    """Analytic Bloch vector d (the +-band convention of `bloch`)."""
    return _closed_form(1, pid, angles, T, k)


def drho_closed_form(pid: str, angles: Mapping, T, k, axis):
    """Analytic d rho/d k_axis; an axis beyond the walk's dimension is rejected."""
    return _closed_form(2, pid, angles, T, k, axis)


def group_velocity_closed(pid: str, angles: Mapping, T, k, axis):
    """Analytic dE_+/dk_axis = -(d rho/d k_axis)/sqrt(1 - rho^2)."""
    rho = rho_closed_form(pid, angles, T, k)
    s2 = 1.0 - rho ** 2
    if np.any(s2 <= EPS_GAP ** 2):
        raise GaplessError(f"group velocity ill-defined for {pid!r}: bands touch")
    return -drho_closed_form(pid, angles, T, k, axis) / np.sqrt(s2)

