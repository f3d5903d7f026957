"""Truncated-basis state construction, propagation, moments, and kernels."""

import math
import warnings

import numpy as np
import pytest

from kerrzeno.fock import (
    DEFAULT_TAIL_BUDGET,
    FockVector,
    MeasurementSpec,
    QuadratureGrid,
    TruncationError,
    annihilation_matrix,
    coherent_state,
    default_dim,
    dichotomic_survival_exact,
    displaced_seed,
    identity_resolution_defect,
    kerr_propagate,
    mean_a,
    mean_a_closed_form,
    number_moment,
    number_squared_variance,
    quadrature_mean_cov,
    squeeze_matrix,
    squeezed_coherent_state,
    transition_density,
    transition_normalization,
)
from kerrzeno.phase_space import PhaseVector


def dense_quadrature_moments(psi: FockVector):
    """Independent oracle: moments from dense quadrature operator matrices."""
    a = annihilation_matrix(psi.dim)
    q = (a + a.T) / math.sqrt(2.0)
    p = (a - a.T) / (1j * math.sqrt(2.0))
    c = psi.amps

    def ev(op):
        return complex(np.vdot(c, op @ c)).real

    mean = np.array([ev(q), ev(p)])
    cov = np.array(
        [
            [ev(q @ q) - mean[0] ** 2, ev((q @ p + p @ q) / 2.0) - mean[0] * mean[1]],
            [0.0, ev(p @ p) - mean[1] ** 2],
        ]
    )
    cov[1, 0] = cov[0, 1]
    return mean, cov


# --- coherent states ---------------------------------------------------------


def test_coherent_vacuum():
    psi = coherent_state(0.0, dim=8)
    np.testing.assert_array_equal(psi.amps[0], 1.0)
    np.testing.assert_array_equal(psi.amps[1:], np.zeros(7))
    assert psi.tail_mass == 0.0


def test_coherent_ground_overlap():
    psi = coherent_state(2.0)
    assert abs(abs(psi.amps[0]) ** 2 - math.exp(-4.0)) < 1e-15


def test_coherent_moments_alpha_4():
    psi = coherent_state(4.0, dim=160)
    assert abs(number_moment(psi, 1) - 16.0) < 1e-8
    var = number_moment(psi, 2) - number_moment(psi, 1) ** 2
    assert abs(var - 16.0) < 1e-8


def test_coherent_mean_amplitude_contract():
    alpha = 1.5 + 0.5j
    psi = coherent_state(alpha, dim=60)
    assert abs(number_moment(psi, 1) - abs(alpha) ** 2) < 1e-10 * (1 + abs(alpha) ** 2)
    assert abs(mean_a(psi) - alpha) < 1e-10


def test_coherent_truncation_error_suggests_dim():
    with pytest.raises(TruncationError) as err:
        coherent_state(4.0, dim=20)
    assert err.value.required_dim is not None
    psi = coherent_state(4.0, dim=err.value.required_dim)
    assert psi.tail_mass <= DEFAULT_TAIL_BUDGET


def test_norm_within_tail_budget():
    for alpha in (0.5, 2.0, 4.0):
        psi = coherent_state(alpha)
        assert 1.0 - DEFAULT_TAIL_BUDGET <= psi.norm_sq <= 1.0 + 1e-14
        assert psi.tail_mass <= DEFAULT_TAIL_BUDGET


# --- squeezed states -----------------------------------------------------------


def test_squeezed_r0_equals_coherent():
    alpha = 1.3 + 0.4j
    a = squeezed_coherent_state(alpha, 0.0, dim=70)
    b = coherent_state(alpha, dim=70)
    np.testing.assert_allclose(a.amps, b.amps, atol=1e-10)


def test_squeezed_zero_spec_builds_vacuum_family_states():
    alpha = 0.9 - 0.6j
    a = displaced_seed(MeasurementSpec.squeezed(0.0), alpha, dim=60)
    b = displaced_seed(MeasurementSpec.vacuum(), alpha, dim=60)
    np.testing.assert_allclose(a.amps, b.amps, atol=1e-12)


def test_squeezed_vacuum_quadrature_variances():
    psi = squeezed_coherent_state(0.0, 0.5, dim=60)
    _, cov = dense_quadrature_moments(psi)
    assert abs(cov[0, 0] - math.e / 2.0) < 1e-8
    assert abs(cov[1, 1] - math.exp(-1.0) / 2.0) < 1e-8
    assert abs(cov[0, 1]) < 1e-10


def test_squeezed_vacuum_closed_form_amplitudes():
    # oracle: even amplitudes tanh^m(r) sqrt((2m)!)/(2^m m!) / sqrt(cosh r);
    # built oversized so the compared head is free of truncation effects
    r, dim, head = 0.8, 120, 60
    column = squeeze_matrix(r, dim)[:head, 0]
    expected = np.zeros(head)
    for m in range(head // 2):
        expected[2 * m] = (
            math.tanh(r) ** m
            * math.sqrt(math.factorial(2 * m))
            / (2**m * math.factorial(m))
            / math.sqrt(math.cosh(r))
        )
    np.testing.assert_allclose(column, expected, atol=1e-10)


def test_squeezed_norm_within_budget():
    psi = squeezed_coherent_state(3.0, 0.8, dim=200)
    assert psi.norm_sq >= 1.0 - DEFAULT_TAIL_BUDGET
    assert psi.tail_mass <= DEFAULT_TAIL_BUDGET


def test_displaced_squeezed_moments_match_seed_law():
    alpha, r = 1.2 - 0.7j, 0.4
    psi = squeezed_coherent_state(alpha, r, dim=90)
    mean, cov = quadrature_mean_cov(psi)
    np.testing.assert_allclose(
        mean, [math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag], atol=1e-9
    )
    np.testing.assert_allclose(
        cov, 0.5 * np.diag([math.exp(2 * r), math.exp(-2 * r)]), atol=1e-9
    )
    dense_mean, dense_cov = dense_quadrature_moments(psi)
    np.testing.assert_allclose(mean, dense_mean, atol=1e-10)
    np.testing.assert_allclose(cov, dense_cov, atol=1e-10)


def test_squeezed_truncation_error():
    with pytest.raises(TruncationError):
        squeezed_coherent_state(4.0, 1.0, dim=30)


# --- Kerr propagation ------------------------------------------------------------


def test_kerr_full_revival_is_identity():
    psi = coherent_state(2.0, dim=60)
    back = kerr_propagate(psi, 2.0 * math.pi)
    np.testing.assert_allclose(back.amps, psi.amps, atol=1e-12)


def test_kerr_zero_time_identity():
    psi = squeezed_coherent_state(1.0, 0.3, dim=60)
    np.testing.assert_array_equal(kerr_propagate(psi, 0.0).amps, psi.amps)


def test_kerr_preserves_norm_and_mean_n():
    psi = coherent_state(4.0, dim=160)
    for chi_t in (0.01, 0.4, 1.9, 3.0):
        out = kerr_propagate(psi, chi_t)
        assert abs(out.norm_sq - psi.norm_sq) < 1e-14
        assert abs(number_moment(out, 1) - number_moment(psi, 1)) < 1e-10


def test_kerr_rejects_overflowing_phase_without_warnings():
    # chi_t * n**2 overflows at n = 59: refuse before numpy evaluates exp on inf
    psi = coherent_state(4.0, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dim=60"):
            kerr_propagate(psi, 1e308)


def test_kerr_rejects_non_finite_chi_t_at_dim_one():
    psi = FockVector(amps=np.array([1.0 + 0j]), dim=1, tail_mass=0.0)
    for chi_t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="dim=1"):
            kerr_propagate(psi, chi_t)


# --- mean amplitude ---------------------------------------------------------------


def test_mean_a_vacuum_zero():
    assert mean_a(coherent_state(0.0, dim=10)) == 0.0


@pytest.mark.parametrize("alpha,dim", [(1.0, 60), (2.0, 80), (4.0, 200)])
def test_mean_a_collapse_revival_curve(alpha, dim):
    psi = coherent_state(alpha, dim=dim)
    for chi_t in np.linspace(0.0, math.pi, 65):
        exact = mean_a(kerr_propagate(psi, float(chi_t)))
        closed = mean_a_closed_form(alpha, float(chi_t))
        assert abs(exact - closed) < 1e-8


def test_mean_a_closed_form_values():
    assert mean_a_closed_form(2.5 + 1.0j, 0.0) == 2.5 + 1.0j
    assert abs(mean_a_closed_form(3.0, math.pi) - (-3.0)) < 1e-12
    assert abs(mean_a_closed_form(1.0, math.pi / 2) - (-1j * math.exp(-2.0))) < 1e-12
    assert abs(mean_a_closed_form(1.0, math.pi / 2) - (-0.1353352832366127j)) < 1e-12


# --- number moments -----------------------------------------------------------------


def test_number_moments_vacuum():
    psi = coherent_state(0.0, dim=10)
    for k in (1, 2, 3, 4):
        assert number_moment(psi, k) == 0.0


def test_number_moments_poisson():
    psi = coherent_state(2.0, dim=80)
    assert abs(number_moment(psi, 1) - 4.0) < 1e-10
    assert abs(number_moment(psi, 2) - 20.0) < 1e-9
    # oracle: Poisson <n^4> = mu^4 + 6 mu^3 + 7 mu^2 + mu
    mu = 4.0
    poisson_m4 = mu**4 + 6 * mu**3 + 7 * mu**2 + mu
    assert abs(number_moment(psi, 4) / poisson_m4 - 1.0) < 1e-8
    assert abs(number_squared_variance(psi) - 356.0) < 1e-6


def test_number_moment_rejects_bad_order():
    psi = coherent_state(1.0, dim=30)
    for k in (0, 5, -1):
        with pytest.raises(ValueError):
            number_moment(psi, k)


# --- transition density ---------------------------------------------------------------


def test_transition_density_zero_time_overlap_law():
    spec = MeasurementSpec.vacuum()
    rng = np.random.default_rng(3)
    for _ in range(4):
        a_from, a_to = rng.normal(0, 1.5, 2) + 1j * rng.normal(0, 1.5, 2)
        z_from = PhaseVector.from_alpha(complex(a_from))
        z_to = PhaseVector.from_alpha(complex(a_to))
        got = transition_density(z_from, z_to, 0.0, spec, dim=90)
        want = math.exp(-abs(a_to - a_from) ** 2) / (2.0 * math.pi)
        assert abs(got - want) < 1e-10


def test_transition_density_perfect_overlap():
    spec = MeasurementSpec.vacuum()
    z = PhaseVector.from_alpha(1.0 + 0.5j)
    got = transition_density(z, z, 0.0, spec, dim=60)
    assert abs(got - 1.0 / (2.0 * math.pi)) < 1e-12


def test_transition_density_exchange_symmetry():
    spec = MeasurementSpec.vacuum()
    z1 = PhaseVector.from_alpha(1.0 + 0.2j)
    z2 = PhaseVector.from_alpha(0.4 - 0.9j)
    chi_tau = 0.03
    forward = transition_density(z1, z2, chi_tau, spec, dim=60)
    backward = transition_density(z2, z1, -chi_tau, spec, dim=60)
    assert abs(forward - backward) < 1e-13


def test_transition_density_squeezed_zero_matches_vacuum():
    z1 = PhaseVector.from_alpha(0.8 + 0.1j)
    z2 = PhaseVector.from_alpha(0.1 - 0.4j)
    a = transition_density(z1, z2, 0.02, MeasurementSpec.squeezed(0.0), dim=60)
    b = transition_density(z1, z2, 0.02, MeasurementSpec.vacuum(), dim=60)
    assert abs(a - b) < 1e-12


def test_transition_density_custom_seed_matches_squeezed():
    dim = 60
    seed = FockVector(
        amps=squeeze_matrix(0.5, dim)[:, 0].astype(complex), dim=dim, tail_mass=0.0
    )
    z1 = PhaseVector.from_alpha(0.6 + 0.3j)
    z2 = PhaseVector.from_alpha(-0.2 + 0.5j)
    a = transition_density(z1, z2, 0.01, MeasurementSpec.custom(seed), dim=dim)
    b = transition_density(z1, z2, 0.01, MeasurementSpec.squeezed(0.5), dim=dim)
    assert abs(a - b) < 1e-12


def test_transition_normalization_unit():
    z_from = PhaseVector.from_alpha(3.0 + 0.0j)
    total = transition_normalization(
        z_from, 0.005, MeasurementSpec.vacuum(), dim=70
    )
    assert abs(total - 1.0) < 1e-3


# --- identity resolution ------------------------------------------------------------------


def test_identity_defect_vacuum():
    defect = identity_resolution_defect(MeasurementSpec.vacuum(), dim=60, dim_check=10)
    assert defect < 1e-3


def test_identity_defect_squeezed():
    defect = identity_resolution_defect(
        MeasurementSpec.squeezed(0.5), dim=60, dim_check=10
    )
    assert defect < 1e-2


def test_identity_defect_degenerate_grid():
    grid = QuadratureGrid(n_r=1, n_phi=1)
    defect = identity_resolution_defect(
        MeasurementSpec.vacuum(), dim=60, grid=grid, dim_check=10
    )
    assert defect > 0.5


def test_identity_defect_validates_dims():
    with pytest.raises(ValueError):
        identity_resolution_defect(MeasurementSpec.vacuum(), dim=10, dim_check=10)


# --- dichotomic survival -----------------------------------------------------------------------


def test_dichotomic_survival_zero_time():
    spec = MeasurementSpec.vacuum()
    assert dichotomic_survival_exact(2.0, spec, chi=1.0, t=0.0, n_steps=5) == 1.0


def test_dichotomic_survival_freezes_with_frequency():
    spec = MeasurementSpec.vacuum()
    values = [
        dichotomic_survival_exact(2.0, spec, chi=1.0, t=0.1, n_steps=n)
        for n in (1, 10, 100, 1000)
    ]
    assert values[0] < values[1] < values[2] < values[3]
    assert values[3] > 0.99


def test_dichotomic_survival_nonincreasing_in_time():
    spec = MeasurementSpec.vacuum()
    times = (0.001, 0.003, 0.01, 0.03)
    values = [
        dichotomic_survival_exact(2.0, spec, chi=1.0, t=t, n_steps=4) for t in times
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_dichotomic_survival_respects_gaussian_bound():
    spec = MeasurementSpec.vacuum()
    psi0 = displaced_seed(spec, 2.0, dim=default_dim(4.0))
    var_n2 = number_squared_variance(psi0)
    chi_t = 0.1
    for n in (1, 10, 100, 1000):
        survival = dichotomic_survival_exact(2.0, spec, chi=1.0, t=chi_t, n_steps=n)
        bound = math.exp(-var_n2 * chi_t**2 / n)
        assert survival >= bound * (1.0 - 1e-9)


# --- value types ---------------------------------------------------------------------------------


def test_measurement_spec_validation():
    with pytest.raises(ValueError):
        MeasurementSpec(kind="custom")
    with pytest.raises(ValueError):
        MeasurementSpec(kind="thermal")
    spec = MeasurementSpec.custom(
        FockVector(amps=np.array([1.0 + 0j]), dim=1, tail_mass=0.0)
    )
    with pytest.raises(ValueError):
        _ = spec.seed_r
    assert not spec.is_gaussian


def test_custom_seed_dim_mismatch():
    seed = FockVector(amps=np.zeros(90, dtype=complex), dim=90, tail_mass=0.0)
    with pytest.raises(ValueError):
        MeasurementSpec.custom(seed).seed_vector(60)


def test_fock_vector_validation():
    with pytest.raises(ValueError):
        FockVector(amps=np.zeros(3, dtype=complex), dim=4, tail_mass=0.0)
    with pytest.raises(ValueError):
        FockVector(amps=np.array([np.nan + 0j]), dim=1, tail_mass=0.0)


def test_default_dim_rule():
    assert default_dim(0.0) == 30
    assert default_dim(16.0) == math.ceil(16.0 + 10.0 * math.sqrt(17.0) + 20.0)
    with pytest.raises(ValueError):
        default_dim(-1.0)
