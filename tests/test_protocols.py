import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generic_angles
from topowalk import protocols as pr
from topowalk.errors import InvalidInputError, UnknownProtocolError
from topowalk.spectrum import (bands_from_unitary, bands_with_velocity, bloch, bloch_entries,
                               oracle_bands, two_band_plan)
from topowalk.su2 import (SIGMA_X, SIGMA_Y, SIGMA_Z, TAU_Y, block_diag2, tensor,
                          unitarity_defect)
from topowalk.symmetry import bz_grid, momentum_axes

TWO_BAND_IDS = [pid for pid in pr.PROTOCOL_IDS if pr.REGISTRY[pid].bands == 2]


def test_registry_has_all_22_protocols():
    assert len(pr.PROTOCOL_IDS) == 22
    dims = {1: 0, 2: 0, 3: 0}
    for pid in pr.PROTOCOL_IDS:
        dims[pr.REGISTRY[pid].dimension] += 1
    assert dims == {1: 6, 2: 7, 3: 9}


def test_lookup_unknown_id_lists_valid_ones():
    with pytest.raises(UnknownProtocolError, match="1d-phs"):
        pr.registry_lookup("not-a-walk")


def test_1d_chs_element_ordering():
    # application order: coin(beta), half-shift, coin(alpha), half-shift
    spec = pr.registry_lookup("1d-chs")
    kinds = [type(el).__name__ for el in spec.elements]
    assert kinds == ["Coin", "Shift", "Coin", "Shift"]
    assert spec.elements[0].symbol == "beta"
    assert spec.elements[2].symbol == "alpha"
    assert spec.elements[0].axis == pr.AXIS_NU
    assert spec.elements[1] == pr.shift_up_phase(1, 0)
    assert spec.elements[3] == pr.shift_down_phase(1, 0)


def test_3d_simple_element_ordering():
    spec = pr.registry_lookup("3d-simple")
    assert isinstance(spec.elements[0], pr.Coin)
    assert [el.up for el in spec.elements[1:]] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_2d_nosym_mixes_coin_axes():
    spec = pr.registry_lookup("2d-nosym")
    axes = [el.axis for el in spec.elements if isinstance(el, pr.Coin)]
    assert axes == [pr.AXIS_Y, pr.AXIS_NU, pr.AXIS_Y]


def test_zero_angle_limits():
    spec = pr.registry_lookup("1d-phs")
    U = pr.build_unitary(spec, 0.7)
    npt.assert_allclose(U, np.diag([np.exp(1.4j), np.exp(-1.4j)]), atol=1e-14)
    spec = pr.registry_lookup("1d-chs")
    U = pr.build_unitary(spec, 0.4)
    npt.assert_allclose(U, np.diag([np.exp(0.4j), np.exp(-0.4j)]), atol=1e-14)


def test_1d_phs_matches_explicit_product():
    spec = pr.registry_lookup("1d-phs", T=4, angles={"alpha": 0.9, "beta": -1.3})
    k = 0.37
    R = lambda half: np.array([[np.cos(half), -np.sin(half)],
                               [np.sin(half), np.cos(half)]])
    s_ud = np.diag([np.exp(1j * k), np.exp(-1j * k)])
    s_dn = np.diag([np.exp(1j * k), 1.0])
    s_up = np.diag([1.0, np.exp(-1j * k)])
    expected = s_up @ R(2 * 0.9) @ s_dn @ R(2 * -1.3) @ s_ud
    npt.assert_allclose(pr.build_unitary(spec, k), expected, atol=1e-14)


def _reference_base(spec, k, angles, T):
    """Product of coins exp(-i T theta/2 axis.sigma), by scipy's matrix
    exponential, and diagonal shift matrices, in application order."""
    batch = np.broadcast_shapes(k.shape[:-1], np.shape(T),
                                *(np.shape(v) for v in angles.values()))
    U = np.broadcast_to(np.eye(2, dtype=complex), batch + (2, 2))
    for el in spec.elements:
        if isinstance(el, pr.Coin):
            gen = np.tensordot(el.axis, [SIGMA_X, SIGMA_Y, SIGMA_Z], axes=1)
            theta = np.multiply(T, angles[el.symbol])
            M = scipy.linalg.expm(-0.5j * np.asarray(theta)[..., None, None] * gen)
        else:
            M = np.zeros(k.shape[:-1] + (2, 2), dtype=complex)
            M[..., 0, 0] = np.exp(1j * (k @ np.array(el.up, dtype=float)))
            M[..., 1, 1] = np.exp(1j * (k @ np.array(el.down, dtype=float)))
        U = M @ U
    return U


def _reference_unitary(spec, k, angles, T):
    Uk = _reference_base(spec, k, angles, T)
    if spec.doubled is None:
        return Uk
    Um = _reference_base(spec, -k, angles, T)
    if spec.doubled == "transpose_block":
        return block_diag2(Uk, np.swapaxes(Um, -1, -2))
    if spec.doubled == "conjugate_block":
        return block_diag2(Uk, Um.conj())
    assert spec.doubled == "trs_sandwich"
    eye = np.broadcast_to(np.eye(2, dtype=complex), Uk.shape)
    wall = (np.cos(np.pi / 4) * np.eye(4)
            - 1j * np.sin(np.pi / 4) * tensor(TAU_Y, SIGMA_Y))
    return block_diag2(Uk, eye) @ wall @ block_diag2(eye, np.swapaxes(Um, -1, -2))


@pytest.mark.parametrize("pid", pr.PROTOCOL_IDS)
def test_kernel_matches_matrix_product_reference(pid, rng):
    spec = pr.registry_lookup(pid, T=3)
    spec = spec.with_params(**generic_angles(spec, rng))
    n = 7
    k = rng.uniform(-np.pi, np.pi, size=(n, spec.dimension))
    array_angles = {s: rng.uniform(-np.pi, np.pi, size=n) for s in spec.symbols}
    array_T = rng.integers(1, 9, size=n)
    cases = [({}, None), (array_angles, None), ({}, array_T), (array_angles, array_T)]
    for angles, T in cases:
        U = pr.build_unitary(spec, k, angles=angles, T=T)
        ref = _reference_unitary(spec, k, {**spec.angles, **angles},
                                 spec.T if T is None else T)
        assert U.shape == (n, spec.bands, spec.bands)
        npt.assert_allclose(U, ref, rtol=0, atol=1e-14)


def test_plan_derivative_matches_central_difference(rng):
    """The grad rows are dU/dk_i of the same loop's values: these equal
    `entries` bitwise, and the rows match a central difference of them."""
    h = 1e-6
    for pid in pr.PROTOCOL_IDS:
        spec = pr.registry_lookup(pid, T=3)
        if spec.bands != 2:
            continue
        plan = pr.compile_plan(spec.with_params(**generic_angles(spec, rng)))
        k = rng.uniform(-np.pi, np.pi, size=(16, spec.dimension))
        values, grads = plan.entries_and_grad(k)
        assert len(grads) == spec.dimension
        for got, want in zip(values, plan.entries(k)):
            npt.assert_array_equal(got, want)
        for ax, grad in enumerate(grads):
            step = np.zeros(spec.dimension)
            step[ax] = h
            for g, p, m in zip(grad, plan.entries(k + step), plan.entries(k - step)):
                npt.assert_allclose(g, (p - m) / (2 * h), rtol=0, atol=1e-8)


@pytest.mark.parametrize("pid", pr.PROTOCOL_IDS)
def test_open_mesh_entries_match_flat_grid(pid, rng):
    """On an open mesh (one array per axis, n exponentials per axis) the plan
    gives, bit for bit, the entries it gives on the flattened n^dim grid, and
    `build_unitary` gives U(k) and, on the negated axes, U(-k), doubled walks
    included."""
    spec = pr.registry_lookup(pid, T=3)
    spec = spec.with_params(**generic_angles(spec, rng))
    plan = pr.compile_plan(spec)
    shape = ({1: 37, 2: 16, 3: 7}[spec.dimension],) * spec.dimension
    mesh = np.meshgrid(*momentum_axes(spec.dimension, shape[0]), indexing="ij", sparse=True)
    flat = bz_grid(spec.dimension, shape[0])
    for got, want in zip(plan.entries(mesh), plan.entries(flat)):
        assert got.shape == shape
        npt.assert_array_equal(got.ravel(), want)
    npt.assert_array_equal(plan.unitary(mesh).reshape(-1, 2, 2), plan.unitary(flat))
    for axes, batch in ((mesh, flat), ([-x for x in mesh], -flat)):
        U = pr.build_unitary(spec, axes)
        assert U.shape == shape + (spec.bands, spec.bands)
        npt.assert_array_equal(U.reshape(-1, spec.bands, spec.bands),
                               pr.build_unitary(spec, batch))


@pytest.mark.parametrize("pid", TWO_BAND_IDS)
def test_fourier_coefficients_sum_to_the_entries(pid, rng):
    """The plan's Fourier coefficients, summed against their phasors, give the
    step loop's (a, c) within rounding, on a stack of walks as for one walk;
    which frequencies occur depends on the protocol's elements, not on its
    angles or step number."""
    spec = pr.registry_lookup(pid)
    dim = spec.dimension
    k = rng.uniform(-2 * np.pi, 2 * np.pi, size=(9, dim))
    stack = {s: rng.uniform(-np.pi, np.pi, size=(4, 1)) for s in spec.symbols}
    freqs = None
    for plan in (pr.compile_plan(spec, angles=generic_angles(spec, rng), T=3),
                 pr.compile_plan(spec, angles=stack, T=rng.integers(1, 6, size=(4, 1)))):
        terms = plan.fourier()
        if freqs is None:
            freqs = [[f.tolist() for f in fr] for fr, _ in terms]
        assert [[f.tolist() for f in fr] for fr, _ in terms] == freqs
        assert all(max(map(len, fr)) <= 3 for fr, _ in terms)
        for (fr, coef), want in zip(terms, plan.entries(k)):
            phase = [np.exp(1j * np.multiply.outer(k[:, ax], fr[ax])) for ax in range(dim)]
            got = 0
            for j in np.ndindex(coef.shape[coef.ndim - dim:]):
                term = coef[(Ellipsis,) + j]
                for ax in range(dim):
                    term = term * phase[ax][:, j[ax]]
                got = got + term
            npt.assert_allclose(got, np.broadcast_to(want, got.shape), rtol=0, atol=1e-14)


def test_open_mesh_needs_one_array_per_axis():
    plan = pr.compile_plan(pr.registry_lookup("2d-phs"))
    with pytest.raises(InvalidInputError, match="2 axis arrays"):
        plan.entries([np.zeros(4)])


@pytest.mark.parametrize("pid", TWO_BAND_IDS)
def test_unitary_is_packed_from_two_entries(pid, rng):
    """U = [[a, -conj(c)], [c, conj(a)]] exactly, with det U = 1, also for the
    half-shift walks whose shift phases carry half-integer m."""
    spec = pr.registry_lookup(pid, T=5)
    plan = pr.compile_plan(spec.with_params(**generic_angles(spec, rng)))
    U = plan.unitary(rng.uniform(-np.pi, np.pi, size=(64, spec.dimension)))
    npt.assert_array_equal(U[..., 0, 1], -U[..., 1, 0].conj())
    npt.assert_array_equal(U[..., 1, 1], U[..., 0, 0].conj())
    npt.assert_allclose(np.linalg.det(U), 1.0, rtol=0, atol=1e-14)


def test_half_shift_walks_reduce_to_half_integer_phases():
    for pid in ("1d-split", "1d-phs", "1d-chs"):
        shifts = [data for kind, data in pr.compile_plan(pr.registry_lookup(pid)).steps
                  if kind == "shift"]
        assert ((0, 0.5),) in shifts


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_rejects_non_finite_angle(bad):
    spec = pr.registry_lookup("2d-nosym")
    with pytest.raises(InvalidInputError):
        pr.build_unitary(spec, np.zeros((2, 2)), angles={"alpha": bad})
    with pytest.raises(InvalidInputError):
        pr.build_unitary(spec, np.zeros((2, 2)), angles={"gamma": np.array([0.1, bad])})


@pytest.mark.parametrize("bad", ["x", "0.5", None, 1j, True, np.bool_(True), [0.5, 0.7],
                                 np.array([0.5, 0.7])])
def test_one_walk_angle_must_be_one_real_number(bad):
    with pytest.raises(InvalidInputError, match="angle 'alpha'"):
        pr.registry_lookup("1d-phs", angles={"alpha": bad})


@pytest.mark.parametrize("bad", ["x", None, 1j, True, ["0.5", "0.7"], [True, False],
                                 np.array([1j, 0.5]), [[0.5], [0.5, 0.7]]])
def test_stacked_angle_must_be_real(bad):
    spec = pr.registry_lookup("1d-phs")
    with pytest.raises(InvalidInputError, match="angle 'alpha'"):
        pr.stacked_params(spec, {"alpha": bad})
    with pytest.raises(InvalidInputError, match="angle 'alpha'"):
        pr.compile_plan(spec, angles={"alpha": bad})


def test_real_angles_of_every_numeric_type_are_taken():
    for theta in (1, 0.5, np.float32(0.5), np.int64(1), np.array(0.5)):
        assert pr.registry_lookup("1d-phs", angles={"alpha": theta}).angles["alpha"] == float(theta)
    angles, _ = pr.stacked_params(pr.registry_lookup("1d-phs"), {"alpha": [0.5, 1]})
    assert angles["alpha"].tolist() == [0.5, 1.0]


def test_refine_norm_matches_oracle_route(rng):
    """|d| as the gap refinement reads it (the Bloch split of its compiled
    plan's entries) against the matrix oracle."""
    for pid in pr.PROTOCOL_IDS:
        spec = pr.registry_lookup(pid, T=4)
        if spec.bands != 2:
            continue
        spec = spec.with_params(**generic_angles(spec, rng))
        k = rng.uniform(-np.pi, np.pi, size=(32, spec.dimension))
        oracle = np.linalg.norm(bands_from_unitary(pr.build_unitary(spec, k)).d, axis=-1)
        _, d = bloch_entries(*two_band_plan(spec).entries(k))
        refine = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        npt.assert_allclose(refine, oracle, rtol=0, atol=1e-15)


def test_compile_rejects_walk_that_is_not_special_unitary():
    """A lone half shift has det U(k) = exp(i k), so the phase-free Bloch
    split would be wrong for it; the registered walks all pass the check."""
    lone = pr.ProtocolSpec(id="lone-half-shift", dimension=1,
                           elements=(pr.Coin("beta"), pr.shift_up_phase(1, 0)),
                           angles={"beta": 0.3})
    with pytest.raises(InvalidInputError, match="special-unitary"):
        pr.compile_plan(lone)
    with pytest.raises(InvalidInputError, match="special-unitary"):
        pr.build_unitary(lone, np.zeros((2, 1)))
    for pid in pr.PROTOCOL_IDS:
        pr.compile_plan(pr.registry_lookup(pid))


def test_unitarity_thousand_random_specs(rng):
    worst = 0.0
    for _ in range(1000):
        pid = pr.PROTOCOL_IDS[rng.integers(len(pr.PROTOCOL_IDS))]
        template = pr.registry_lookup(pid)
        spec = template.with_params(T=int(rng.integers(1, 21)),
                                    **generic_angles(template, rng))
        k = rng.uniform(-np.pi, np.pi, size=(4, spec.dimension))
        worst = max(worst, unitarity_defect(pr.build_unitary(spec, k)))
    assert worst <= 1e-12


@given(st.sampled_from(pr.PROTOCOL_IDS), st.integers(1, 20), st.data())
@settings(max_examples=120, deadline=None)
def test_unitarity_random_specs(pid, T, data):
    template = pr.registry_lookup(pid)
    angles = {s: data.draw(st.floats(-np.pi, np.pi)) for s in template.symbols}
    spec = template.with_params(T=T, **angles)
    rng = np.random.default_rng(abs(hash((pid, T))) % 2 ** 31)
    k = rng.uniform(-np.pi, np.pi, size=(8, spec.dimension))
    assert unitarity_defect(pr.build_unitary(spec, k)) <= 1e-12


@pytest.mark.parametrize("pid", pr.PROTOCOL_IDS)
def test_angle_periodicity_4pi_over_T(pid, rng):
    template = pr.registry_lookup(pid)
    T = 5
    angles = generic_angles(template, rng)
    spec = template.with_params(T=T, **angles)
    k = rng.uniform(-np.pi, np.pi, size=(6, spec.dimension))
    U0 = pr.build_unitary(spec, k)
    for sym in spec.symbols:
        shifted = dict(angles)
        shifted[sym] = angles[sym] + 4 * np.pi / T
        U1 = pr.build_unitary(template.with_params(T=T, **shifted), k)
        assert np.abs(U1 - U0).max() <= 1e-12


@pytest.mark.parametrize("pid", pr.PROTOCOL_IDS)
def test_momentum_periodicity_2pi(pid, rng):
    spec = pr.registry_lookup(pid, T=3)
    spec = spec.with_params(**generic_angles(spec, rng))
    k = rng.uniform(-np.pi, np.pi, size=(5, spec.dimension))
    U0 = pr.build_unitary(spec, k)
    for ax in range(spec.dimension):
        shift = np.zeros(spec.dimension)
        shift[ax] = 2 * np.pi
        U1 = pr.build_unitary(spec, k + shift)
        assert np.abs(U1 - U0).max() <= 1e-12


@pytest.mark.parametrize("pid", ["1d-diii", "1d-cii", "2d-diii", "2d-c", "3d-diii",
                                 "3d-cii", "3d-c"])
def test_doubled_offdiagonal_blocks_exactly_zero(pid, rng):
    spec = pr.registry_lookup(pid, T=2)
    spec = spec.with_params(**generic_angles(spec, rng))
    k = rng.uniform(-np.pi, np.pi, size=(7, spec.dimension))
    U = pr.build_unitary(spec, k)
    assert np.abs(U[..., :2, 2:]).max() == 0.0
    assert np.abs(U[..., 2:, :2]).max() == 0.0


def test_transpose_block_uses_reversed_momentum(rng):
    spec = pr.registry_lookup("1d-diii", T=3, angles={"alpha": 0.6, "beta": 1.1})
    base = pr.registry_lookup("1d-phs", T=3, angles={"alpha": 0.6, "beta": 1.1})
    k = rng.uniform(-np.pi, np.pi, size=(5, 1))
    U = pr.build_unitary(spec, k)
    npt.assert_allclose(U[..., :2, :2], pr.build_unitary(base, k), atol=1e-15)
    npt.assert_allclose(U[..., 2:, 2:],
                        np.swapaxes(pr.build_unitary(base, -k), -1, -2), atol=1e-15)


def test_step_independent_reduction_rewrites_T_only():
    spec = pr.registry_lookup("1d-phs", T=7, angles={"alpha": np.pi / 3, "beta": 0.2})
    reduced = pr.step_independent_reduction(spec)
    assert reduced.T == 1
    assert reduced.angles == spec.angles
    assert pr.step_independent_reduction(reduced) == reduced


def test_step_independent_unitary_bitwise_matches_T1(rng):
    spec = pr.registry_lookup("2d-phs", T=1, angles={"alpha": 0.71, "beta": -0.39})
    k = rng.uniform(-np.pi, np.pi, size=(9, 2))
    A = pr.build_unitary(spec, k)
    B = pr.build_unitary(pr.step_independent_reduction(spec), k)
    assert np.array_equal(A, B)


def test_coin_matrices_agree_when_half_angles_compensate(rng):
    # coins depend on T*angle only: T=2 with halved angles equals T=1
    a, b = 0.9, -1.2
    one = pr.registry_lookup("1d-split", T=1, angles={"alpha": a, "beta": b})
    two = pr.registry_lookup("1d-split", T=2, angles={"alpha": a / 2, "beta": b / 2})
    k = rng.uniform(-np.pi, np.pi, size=(6, 1))
    npt.assert_allclose(pr.build_unitary(one, k), pr.build_unitary(two, k), atol=1e-15)


def test_rejects_bad_step_numbers():
    spec = pr.registry_lookup("1d-phs")
    with pytest.raises(InvalidInputError):
        spec.with_params(T=0)
    with pytest.raises(InvalidInputError):
        spec.with_params(T=2.5)
    with pytest.raises(InvalidInputError, match="one integer"):  # a spec holds one step number
        spec.with_params(T=np.array([2, 3]))


@pytest.mark.parametrize("T", [2.5, True, np.nan, np.array([[1.5]]), np.array([2, 3.25]),
                               np.array([True, False]), 2 ** 64,
                               np.array([1, 2 ** 70], dtype=object), 2 ** 63,
                               np.array([2.0 ** 63])])
def test_plan_rejects_non_integral_step_numbers(T):
    # the walk exists for integer T only; integral floats stay accepted, and
    # an integer of 2**63 or more (beyond int64) is refused before numpy rounds it
    spec = pr.registry_lookup("1d-phs", angles={"alpha": 0.4, "beta": 0.7})
    k = np.zeros((2, 1))
    # registry_lookup shares the plan's check, so it refuses the same values
    for call in (lambda: bloch(spec, k, T=T), lambda: bands_with_velocity(spec, k, T=T),
                 lambda: pr.build_unitary(spec, k, T=T), lambda: pr.registry_lookup(spec, T=T)):
        with pytest.raises(InvalidInputError, match="step number T must be an integer"):
            call()
    assert pr.build_unitary(spec, k, T=np.array([2.0, 3.0])).shape == (2, 2, 2)


def test_rejects_unknown_angle():
    with pytest.raises(InvalidInputError):
        pr.registry_lookup("3d-simple", angles={"alpha": 1.0})
    with pytest.raises(InvalidInputError):
        pr.build_unitary(pr.registry_lookup("1d-chs"), np.zeros((2, 1)),
                         angles={"betta": 5.0})
    with pytest.raises(InvalidInputError):
        oracle_bands("1d-chs", np.zeros((2, 1)),
                     angles={"alpha": 0.3, "gamam": np.array([0.1, 0.2])})


def test_rejects_wrong_momentum_dimension():
    spec = pr.registry_lookup("2d-phs")
    with pytest.raises(InvalidInputError):
        pr.build_unitary(spec, np.zeros((3, 3)))
