"""Rotation algebra, covariance accumulation laws, and uncertainty checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrzeno.phase_space import (
    EvolutionParams,
    GaussianState2D,
    PhaseVector,
    accumulate_covariance,
    det_cn_asymptotic,
    rotation_matrix,
    step_covariance,
)
from oracles import classical_evolve, density, dirichlet_sum, phase_vector, rs_uncertainty_check
from oracles import seed_covariance, step_entries

angles = st.floats(min_value=-25.0, max_value=25.0, allow_nan=False)
squeezings = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


# --- rotation matrix -------------------------------------------------------


def test_rotation_zero_is_identity():
    np.testing.assert_array_equal(rotation_matrix(0.0), np.eye(2))


def test_rotation_quarter_turn():
    np.testing.assert_allclose(
        rotation_matrix(math.pi / 2), [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15
    )


def test_rotation_power_matches_total_angle():
    single = rotation_matrix(0.3)
    np.testing.assert_allclose(
        np.linalg.matrix_power(single, 7), rotation_matrix(7 * 0.3), atol=1e-12
    )


def test_rotation_rejects_non_finite():
    with pytest.raises(ValueError):
        rotation_matrix(float("nan"))
    with pytest.raises(ValueError):
        rotation_matrix(float("inf"))


@settings(max_examples=60, deadline=None)
@given(theta=angles)
def test_rotation_orthogonal_unit_det(theta):
    m = rotation_matrix(theta)
    np.testing.assert_allclose(m.T @ m, np.eye(2), atol=1e-12)
    assert abs(np.linalg.det(m) - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(t1=angles, t2=angles)
def test_rotation_semigroup(t1, t2):
    np.testing.assert_allclose(
        rotation_matrix(t1) @ rotation_matrix(t2),
        rotation_matrix(t1 + t2),
        atol=1e-12,
    )


# --- classical drift -------------------------------------------------------


def test_classical_evolve_at_t0():
    z0 = PhaseVector(math.sqrt(2) * 4.0, 0.0)
    assert classical_evolve(z0, omega=1.3, t=0.0) == z0


def test_classical_evolve_half_period():
    z0 = phase_vector(4.0 + 0.0j)
    z = classical_evolve(z0, omega=1.0, t=math.pi)
    np.testing.assert_allclose(
        z.as_array(), [-math.sqrt(2) * 4.0, 0.0], atol=1e-12
    )
    assert abs(complex(z.q, z.p) / math.sqrt(2.0) - (-4.0)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(-10, 10),
    p=st.floats(-10, 10),
    omega=st.floats(-5, 5),
    t=st.floats(0, 50),
)
def test_classical_evolve_preserves_modulus(q, p, omega, t):
    z0 = PhaseVector(q, p)
    z = classical_evolve(z0, omega, t)
    modulus, modulus0 = math.hypot(z.q, z.p), math.hypot(z0.q, z0.p)
    assert abs(modulus - modulus0) < 1e-12 * (1.0 + modulus0)


# --- seed and step covariance ---------------------------------------------


def test_seed_covariance_vacuum():
    np.testing.assert_array_equal(seed_covariance(0.0), 0.5 * np.eye(2))


def test_seed_covariance_values():
    np.testing.assert_allclose(
        seed_covariance(0.5), 0.5 * np.diag([math.e, 1.0 / math.e]), rtol=1e-15
    )


@pytest.mark.parametrize("r", [-2.0, -1.0, 0.0, 1.0, 2.0])
def test_seed_covariance_det_quarter(r):
    assert abs(np.linalg.det(seed_covariance(r)) - 0.25) < 1e-14


@pytest.mark.parametrize("theta", [0.0, 0.1, 1.0, 2.7])
def test_step_covariance_vacuum_is_identity(theta):
    np.testing.assert_allclose(step_covariance(0.0, theta), np.eye(2), atol=1e-15)


def test_step_covariance_zero_angle():
    c = step_covariance(0.7, 0.0)
    np.testing.assert_allclose(c, np.diag([math.exp(1.4), math.exp(-1.4)]), rtol=1e-14)
    assert abs(np.linalg.det(c) - 1.0) < 1e-12


@pytest.mark.parametrize("theta", [1e308, -1e308, 9e307])
def test_step_covariance_names_overflowing_angle(theta):
    # sin(2 theta) needs 2 theta finite, which fails just past max_float / 2
    with pytest.raises(ValueError, match=r"theta must satisfy \|theta\| <= max_float / 2"):
        step_covariance(0.3, theta)


def test_step_covariance_matches_seed_composition():
    # independent construction: seed plus seed seen through one rotation
    for r in np.linspace(-1.0, 1.0, 9):
        for theta in np.linspace(0.0, math.pi, 12, endpoint=False):
            seed = seed_covariance(r)
            m_inv = rotation_matrix(theta).T
            composed = seed + m_inv @ seed @ m_inv.T
            np.testing.assert_allclose(
                step_covariance(r, theta), composed, atol=1e-12
            )


# --- accumulated covariance ------------------------------------------------


def test_accumulate_single_step_is_unchanged():
    c1 = step_covariance(0.8, 0.3)
    np.testing.assert_array_equal(accumulate_covariance(c1, 0.3, 1), c1)


def test_accumulate_vacuum_scales_identity():
    np.testing.assert_allclose(
        accumulate_covariance(np.eye(2), 0.4, 25), 25.0 * np.eye(2), atol=1e-12
    )


def test_accumulate_matches_stepwise_recursion():
    # oracle: C_{j+1} = C_j + M^{-j} C_1 M^{-j}^T accumulated step by step
    r, theta, n = 0.8, 0.05, 10
    c1 = step_covariance(r, theta)
    acc = c1.copy()
    for j in range(1, n):
        rot = rotation_matrix(-j * theta)
        acc = acc + rot @ c1 @ rot.T
    np.testing.assert_allclose(accumulate_covariance(c1, theta, n), acc, atol=1e-13)


def test_accumulate_split_composition():
    # C_{N+M} = C_N + M^{-N} C_M (M^{-N})^T
    r, theta, n, m = 0.4, 0.3, 6, 9
    c1 = step_covariance(r, theta)
    whole = accumulate_covariance(c1, theta, n + m)
    rot = rotation_matrix(-n * theta)
    split = accumulate_covariance(c1, theta, n) + rot @ accumulate_covariance(
        c1, theta, m
    ) @ rot.T
    np.testing.assert_allclose(whole, split, atol=1e-12)


def test_accumulate_det_nondecreasing_and_spd():
    c1 = step_covariance(0.7, 0.2)
    prev_det = 0.0
    for n in range(1, 41):
        c_n = accumulate_covariance(c1, 0.2, n)
        assert abs(c_n[0, 1] - c_n[1, 0]) < 1e-12
        assert np.all(np.linalg.eigvalsh(c_n) > 0)
        check = rs_uncertainty_check(c_n)
        assert check.ok
        det = float(np.linalg.det(c_n))
        assert det >= prev_det - 1e-12
        prev_det = det


def test_accumulate_rejects_bad_input():
    with pytest.raises(ValueError):
        accumulate_covariance(np.eye(2), 0.1, 0)
    with pytest.raises(ValueError):
        accumulate_covariance(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.1, 3)
    with pytest.raises(ValueError):
        accumulate_covariance(-np.eye(2), 0.1, 3)


def _summed_covariance(c1, theta, n):
    # oracle: the literal O(n) sum over the n rotated copies of C_1
    angles = -theta * np.arange(n)
    c, s = np.cos(angles), np.sin(angles)
    rots = np.empty((n, 2, 2))
    rots[:, 0, 0] = c
    rots[:, 0, 1] = s
    rots[:, 1, 0] = -s
    rots[:, 1, 1] = c
    return np.einsum("jab,bc,jdc->ad", rots, c1, rots)


def _assert_matches_sum(c1, theta, n):
    summed = _summed_covariance(c1, theta, n)
    closed = accumulate_covariance(c1, theta, n)
    assert np.max(np.abs(closed - summed)) <= 1e-12 * np.max(np.abs(summed))


near_half_turns = st.builds(
    lambda k, delta: k * math.pi + delta,
    st.integers(min_value=-3, max_value=3),
    st.one_of(st.just(0.0), st.floats(min_value=-1e-9, max_value=1e-9)),
)


@settings(max_examples=300, deadline=None)
@given(
    r=st.floats(min_value=-1.5, max_value=1.5),
    theta=st.one_of(st.floats(min_value=-7.0, max_value=7.0), near_half_turns),
    n=st.integers(min_value=1, max_value=3000),
)
def test_accumulate_closed_form_matches_sum(r, theta, n):
    _assert_matches_sum(step_covariance(r, theta), theta, n)


@pytest.mark.parametrize("theta", [math.pi, 2.0 * math.pi])
@pytest.mark.parametrize("n", [2, 3, 1000, 1001])
def test_accumulate_at_half_turns_is_n_copies(theta, n):
    # sin(N theta) / sin(theta) is +-N here; every rotated copy is C_1 itself
    c1 = step_covariance(0.9, theta)
    _assert_matches_sum(c1, theta, n)
    np.testing.assert_allclose(
        accumulate_covariance(c1, theta, n), n * c1, rtol=1e-12, atol=1e-12 * n
    )


@pytest.mark.parametrize("r", [0.0, 0.5, -0.7])
def test_kernels_over_arrays_keep_the_float_bits(r):
    # 2003 angles, each with its own N: multiples of pi / 2 (eps == 0 at
    # multiples of pi), and two where cos(theta) ** 2 differs from
    # cos(theta) * cos(theta) in the last bit
    thetas = np.concatenate(
        [np.linspace(-10.0, 10.0, 1994), 0.5 * math.pi * np.arange(-3, 4), [2.894, 4.205]]
    )
    ns = np.arange(1, len(thetas) + 1) % 97 + 1
    c1 = step_covariance(r, thetas)
    cn = accumulate_covariance(c1, thetas, ns)
    assert c1.shape == cn.shape == (len(thetas), 2, 2)
    got = np.concatenate([c1.reshape(-1, 4), cn.reshape(-1, 4)], axis=1)
    want = []
    for theta, n in zip(thetas.tolist(), ns.tolist()):
        (c00, c01, c11), (e00, e01, e11) = (
            step_entries(r, theta), dirichlet_sum(*step_entries(r, theta), theta, n)
        )
        want.append([c00, c01, c01, c11, e00, e01, e01, e11])
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
    # a (2, 2) C_1 broadcasts against the N, as covariance-growth passes it
    one = accumulate_covariance(c1[5], thetas[5], ns)
    assert np.array_equal(one[ns == ns[5]], np.broadcast_to(cn[5], one[ns == ns[5]].shape))


def test_array_inputs_refuse_their_first_bad_element():
    thetas = np.array([0.1, 0.2, 1e-8, 1e-8])
    c1 = step_covariance(10.0, thetas)  # the literal C_1 cancels at theta = 1e-8
    with pytest.raises(ValueError, match="^c1 must be symmetric positive-definite$"):
        accumulate_covariance(c1, thetas, 3)
    accumulate_covariance(c1[:2], thetas[:2], 3)
    stack = np.stack([np.eye(2), [[1.0, 0.0], [0.0, np.nan]]])
    with pytest.raises(ValueError, match="^c1 must have finite entries$"):
        accumulate_covariance(stack, 0.1, 2)
    with pytest.raises(ValueError, match=r"^c1 must have shape \(\.\.\., 2, 2\), got \(3, 2\)$"):
        accumulate_covariance(np.ones((3, 2)), 0.1, 2)
    for ns, bad in (([1, 2, 0, 5], "0"), ([1.0, 2.5, 3.0], "2.5"), ([2, 3, -1], "-1")):
        with pytest.raises(ValueError, match=rf"^n must be an integer in \[1, inf\), got {bad}$"):
            accumulate_covariance(np.eye(2), 0.1, np.array(ns))
    with pytest.raises(ValueError, match="^theta must be finite, got nan$"):
        accumulate_covariance(np.eye(2), np.array([0.1, np.nan, np.inf]), 2)
    with pytest.raises(ValueError, match=r"^theta must satisfy \|theta\| <= max_float / 2"):
        step_covariance(0.0, np.array([0.0, 1e308]))


def test_accumulate_refuses_c1_and_cn_n_by_n():
    big, bad = 1e154 * np.eye(2), -np.eye(2)
    overflow = r"^2x2 determinant overflows double precision \(largest entry 2\.000e\+154\)$"
    # C_N overflows at index 1 (2 x 1e154), before the bad C_1 at index 2
    with pytest.raises(ValueError, match=overflow):
        accumulate_covariance(np.stack([big, big, bad]), 0.1, np.array([1, 2, 1]))
    # the bad C_1 at index 0 goes before that C_N
    with pytest.raises(ValueError, match="^c1 must be symmetric positive-definite$"):
        accumulate_covariance(np.stack([bad, big, big]), 0.1, np.array([1, 2, 1]))
    # at one index C_1 goes first: its determinant overflows at 1e200, C_N's at 3e200
    with pytest.raises(ValueError, match=r"\(largest entry 1\.000e\+200\)$"):
        accumulate_covariance(1e200 * np.eye(2), 0.1, 3)
    # a lone C_1 refused is the first element of every N
    with pytest.raises(ValueError, match="^c1 must be symmetric positive-definite$"):
        accumulate_covariance(bad, 0.1, np.array([2, 3]))
    accumulate_covariance(np.stack([big, big]), 0.1, np.array([1, 1]))


@pytest.mark.parametrize("theta", [1e-8, math.pi])
@pytest.mark.parametrize("r", [10.7, -10.7])
def test_accumulate_refuses_a_non_spd_cn_as_cov(r, theta):
    # the literal C_1 passes, and its sum over 2 steps cancels to det <= 0
    c1 = step_covariance(r, theta)
    accumulate_covariance(c1, theta, 1)
    with pytest.raises(ValueError, match="^cov must be symmetric positive-definite$"):
        accumulate_covariance(c1, theta, 2)
    with pytest.raises(ValueError, match="^cov must be symmetric positive-definite$"):
        accumulate_covariance(c1, theta, np.arange(1, 65))


# --- determinant asymptote --------------------------------------------------


def test_det_asymptotic_vacuum_is_n():
    assert det_cn_asymptotic(0.0, 17) == 17.0
    assert det_cn_asymptotic(0.0, 1) == 1.0


def test_det_asymptotic_against_exact_sum():
    # tolerances fixed from the measured deviation of the exact sum
    theta = 0.01
    c1 = step_covariance(0.5, theta)
    for n, tol in ((200, 0.07), (500, 0.05)):
        exact = math.sqrt(np.linalg.det(accumulate_covariance(c1, theta, n)))
        assert abs(exact / det_cn_asymptotic(0.5, n) - 1.0) < tol


# --- uncertainty check -------------------------------------------------------


@pytest.mark.parametrize("r", [-1.5, 0.0, 0.5, 1.5])
def test_rs_check_seed_saturates(r):
    ok, margin = rs_uncertainty_check(seed_covariance(r))
    assert ok
    assert abs(margin) < 1e-12


def test_rs_check_broadened_margin():
    ok, margin = rs_uncertainty_check(25.0 * np.eye(2))
    assert ok
    assert abs(margin - (625.0 - 0.25)) < 1e-9


def test_rs_check_violation():
    bad = np.diag([0.5, 0.2])  # det = 0.1
    ok, margin = rs_uncertainty_check(bad)
    assert not ok
    assert margin < 0


def test_rs_check_rejects_overflowing_determinant():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="determinant overflows"):
            rs_uncertainty_check(np.diag([1e200, 1e200]))


def test_rs_check_rejects_asymmetric():
    with pytest.raises(ValueError):
        rs_uncertainty_check(np.array([[1.0, 0.3], [0.0, 1.0]]))


# --- value types --------------------------------------------------------------


def test_phase_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        PhaseVector(float("nan"), 0.0)
    with pytest.raises(ValueError):
        PhaseVector(0.0, float("inf"))


def test_phase_vector_alpha_roundtrip():
    z = PhaseVector(1.25, -0.5)
    back = phase_vector(complex(z.q, z.p) / math.sqrt(2.0))
    np.testing.assert_allclose(back.as_array(), z.as_array(), rtol=1e-15)


def test_gaussian_state_density_peak():
    cov = step_covariance(0.3, 0.2)
    state = GaussianState2D(mean=PhaseVector(1.0, -2.0), cov=cov)
    peak = 1.0 / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))
    assert abs(density(state, np.array([1.0, -2.0])) - peak) < 1e-14


def test_gaussian_state_rejects_bad_cov():
    with pytest.raises(ValueError):
        GaussianState2D(mean=PhaseVector(0, 0), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_evolution_params_validation():
    with pytest.raises(ValueError):
        EvolutionParams(chi=0.1, n_bar=-1.0, tau=1.0, n_steps=5)
    with pytest.raises(ValueError):
        EvolutionParams(chi=0.1, n_bar=1.0, tau=0.0, n_steps=5)
    with pytest.raises(ValueError):
        EvolutionParams(chi=0.1, n_bar=1.0, tau=1.0, n_steps=0)
    params = EvolutionParams(chi=0.25, n_bar=4.0, tau=0.5, n_steps=8)
    assert params.omega == 2.0
    assert params.theta == 1.0
    assert params.n_steps * params.tau == 4.0
