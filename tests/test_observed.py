"""Observed-chain sampling against its closed-form distribution."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrzeno import observed
from kerrzeno.fock import MeasurementSpec, dichotomic_survival_exact
from kerrzeno.observed import (
    ConvolutionGrid,
    ObservedRunConfig,
    UnsupportedSeedError,
    analytic_final_distribution,
    chain_convolution_check,
    gaussian_step_kernel,
    run_ensemble,
    run_trajectory,
    sample_step,
    survival_density_continuous,
    symmetric_sqrt_2x2,
)
from kerrzeno.phase_space import (
    EvolutionParams,
    PhaseVector,
    accumulate_covariance,
    classical_evolve,
    rotation_matrix,
    step_covariance,
)


def make_config(
    alpha0=3.0,
    chi=0.1,
    n_bar=None,
    tau=2.0,
    n_steps=2,
    r=0.0,
    n_trajectories=1,
    master_seed=0,
):
    z0 = PhaseVector.from_alpha(complex(alpha0))
    if n_bar is None:
        n_bar = abs(complex(alpha0)) ** 2
    spec = MeasurementSpec.vacuum() if r == 0.0 else MeasurementSpec.squeezed(r)
    return ObservedRunConfig(
        z0=z0,
        params=EvolutionParams(chi=chi, n_bar=n_bar, tau=tau, n_steps=n_steps),
        spec=spec,
        n_trajectories=n_trajectories,
        master_seed=master_seed,
    )


class ZeroNoise:
    """Degenerate stand-in for a generator: no fluctuation at all."""

    @staticmethod
    def standard_normal(size):
        return np.zeros(size)


# --- step kernel --------------------------------------------------------------


@pytest.mark.parametrize("theta", [0.0, 0.1, 1.2])
def test_kernel_vacuum_has_unit_covariance(theta):
    kernel = gaussian_step_kernel(MeasurementSpec.vacuum(), theta)
    np.testing.assert_allclose(kernel.cov, np.eye(2), atol=1e-15)


def test_kernel_squeezed_zero_equals_vacuum():
    a = gaussian_step_kernel(MeasurementSpec.squeezed(0.0), 0.3)
    b = gaussian_step_kernel(MeasurementSpec.vacuum(), 0.3)
    np.testing.assert_array_equal(a.cov, b.cov)


def test_kernel_squeezed_matches_step_covariance():
    kernel = gaussian_step_kernel(MeasurementSpec.squeezed(0.5), 0.1)
    np.testing.assert_allclose(kernel.cov, step_covariance(0.5, 0.1), atol=1e-15)


def test_kernel_rejects_custom_seed():
    from kerrzeno.fock import FockVector

    seed = FockVector(amps=np.array([1.0 + 0j]), dim=1, tail_mass=0.0)
    with pytest.raises(UnsupportedSeedError):
        gaussian_step_kernel(MeasurementSpec.custom(seed), 0.1)


def test_symmetric_sqrt():
    c = step_covariance(0.7, 0.4)
    root = symmetric_sqrt_2x2(c)
    np.testing.assert_allclose(root @ root, c, atol=1e-14)
    np.testing.assert_allclose(root, root.T, atol=1e-15)


# --- single step -----------------------------------------------------------------


def test_sample_step_noiseless_is_pure_drift():
    kernel = gaussian_step_kernel(MeasurementSpec.squeezed(0.4), 0.7)
    z = PhaseVector(1.5, -0.5)
    out = sample_step(z, kernel, ZeroNoise())
    np.testing.assert_allclose(
        out.as_array(), rotation_matrix(0.7) @ z.as_array(), atol=1e-15
    )


def test_sample_step_moments():
    theta, r = 0.3, 0.5
    kernel = gaussian_step_kernel(MeasurementSpec.squeezed(r), theta)
    z = PhaseVector(2.0, 1.0)
    rng = np.random.default_rng(11)
    n = 100_000
    draws = np.empty((n, 2))
    for i in range(n):
        draws[i] = sample_step(z, kernel, rng).as_array()
    c1 = step_covariance(r, theta)
    rot = rotation_matrix(theta)
    drift = rot @ z.as_array()
    cov_out = rot @ c1 @ rot.T
    mean_err = np.linalg.norm(draws.mean(axis=0) - drift)
    assert mean_err < 4.0 * math.sqrt(np.trace(cov_out) / n)
    residual = draws @ rot - z.as_array()  # M^-1 z' - z rowwise
    sample_cov = np.cov(residual.T, ddof=1)
    diag = np.diag(c1)
    se = np.sqrt((np.outer(diag, diag) + c1**2) / n)
    assert np.all(np.abs(sample_cov - c1) < 5.0 * se)


# --- trajectories ------------------------------------------------------------------


def test_single_step_trajectory_reduces_to_sample_step():
    cfg = make_config(n_steps=1, tau=0.5, master_seed=5)
    record = run_trajectory(cfg, 3)

    # independent reconstruction of the documented noise derivation
    gen = np.random.Generator(np.random.Philox(key=(5, 3)))
    u = gen.random((1, 2))
    radius = math.sqrt(-2.0 * math.log1p(-u[0, 0]))
    normals = np.array([radius * math.cos(2 * math.pi * u[0, 1]),
                        radius * math.sin(2 * math.pi * u[0, 1])])

    class Replay:
        @staticmethod
        def standard_normal(size):
            return normals

    kernel = gaussian_step_kernel(cfg.spec, cfg.params.theta)
    expected = sample_step(cfg.z0, kernel, Replay())
    np.testing.assert_allclose(record.final.as_array(), expected.as_array(), atol=1e-14)


def test_trajectory_record_shape_and_times():
    cfg = make_config(n_steps=7, tau=0.25)
    record = run_trajectory(cfg, 0)
    assert record.points.shape == (7, 2)
    np.testing.assert_array_equal(record.steps, np.arange(1, 8))
    np.testing.assert_allclose(record.times, 0.25 * np.arange(1, 8), rtol=1e-15)
    assert len(record.outcomes) == 7


def test_trajectory_reruns_bit_identical():
    cfg = make_config(n_steps=12, master_seed=99)
    a = run_trajectory(cfg, 4)
    b = run_trajectory(cfg, 4)
    assert np.array_equal(a.points, b.points)
    c = run_trajectory(cfg, 5)
    assert not np.array_equal(a.points, c.points)


def test_ensemble_matches_individual_trajectories():
    cfg = make_config(n_steps=5, n_trajectories=1000, master_seed=42)
    finals = run_ensemble(cfg)
    for index in (0, 17, 999):
        record = run_trajectory(cfg, index)
        np.testing.assert_array_equal(finals[index], record.points[-1])


@pytest.mark.parametrize("n_steps", [4, observed._VECTOR_MAX_STEPS + 1])
def test_ensemble_chunking_invariance(n_steps):
    # 9000 trajectories span two full 4096-trajectory chunks and a partial one;
    # a trajectory's final must not depend on the chunk it lands in.  The two
    # chain lengths sit on either side of the vectorized-sampler threshold.
    cfg = make_config(n_steps=n_steps, n_trajectories=9000, master_seed=8)
    finals = run_ensemble(cfg)
    for k in (4096, 4097, 5000):
        prefix = run_ensemble(dataclasses.replace(cfg, n_trajectories=k))
        assert np.array_equal(finals[:k], prefix)
    for index in (4095, 4096, 8191, 8192):
        assert np.array_equal(finals[index], run_trajectory(cfg, index).points[-1])


# --- vectorized Philox sampler ------------------------------------------------------


def assert_chunk_matches_generators(seed, offset, length, n_steps):
    """Loop reference: one numpy Philox generator per trajectory."""
    indices = np.arange(offset, offset + length)
    u0, u1 = observed._philox_uniforms(seed, indices, n_steps)
    n0, n1 = observed._box_muller(u0, u1)
    assert u0.shape == u1.shape == (n_steps, length)
    for row, index in enumerate(indices):
        gen = np.random.Generator(np.random.Philox(key=(seed, int(index))))
        u = gen.random((n_steps, 2))
        assert np.array_equal(u0[:, row], u[:, 0])
        assert np.array_equal(u1[:, row], u[:, 1])
        normals = observed._trajectory_normals(seed, int(index), n_steps)
        assert np.array_equal(n0[:, row], normals[:, 0])
        assert np.array_equal(n1[:, row], normals[:, 1])


@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**63 - 1])
@pytest.mark.parametrize("n_steps", [1, 2, 3, observed._VECTOR_MAX_STEPS])
@pytest.mark.parametrize("offset", [0, 4090])
def test_vectorized_philox_matches_generators(seed, n_steps, offset):
    # offset 4090 with 12 trajectories crosses the 4096 chunk edge
    assert_chunk_matches_generators(seed, offset, 12, n_steps)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    offset=st.integers(0, 10**6 - 1),
    length=st.integers(1, 300),
    n_steps=st.integers(1, observed._VECTOR_MAX_STEPS),
)
def test_vectorized_philox_property(seed, offset, length, n_steps):
    assert_chunk_matches_generators(seed, offset, length, n_steps)


@pytest.mark.parametrize("seed", [-1, 2**63, 2**64])
def test_run_config_rejects_seed_outside_domain(seed):
    with pytest.raises(ValueError, match="master_seed"):
        make_config(master_seed=seed)


def test_ensemble_final_covariance_vacuum():
    # after 20 vacuum steps the outcome cloud has covariance 20 I
    cfg = make_config(
        alpha0=3.0, tau=1.3, chi=0.05, n_bar=9.0, n_steps=20,
        n_trajectories=100_000, master_seed=77,
    )
    finals = run_ensemble(cfg)
    target = analytic_final_distribution(cfg)
    np.testing.assert_allclose(target.cov, 20.0 * np.eye(2), atol=1e-10)
    n = cfg.n_trajectories
    mean_err = np.linalg.norm(finals.mean(axis=0) - target.mean.as_array())
    assert mean_err < 4.0 * math.sqrt(np.trace(target.cov) / n)
    sample_cov = np.cov(finals.T, ddof=1)
    diag = np.diag(target.cov)
    se = np.sqrt((np.outer(diag, diag) + target.cov**2) / n)
    assert np.all(np.abs(sample_cov - target.cov) < 5.0 * se)


def test_chain_has_no_memory():
    # the step residual must be uncorrelated with the previous outcome
    cfg = make_config(n_steps=3, tau=1.1, r=0.3, n_trajectories=20_000, master_seed=3)
    _, paths = run_ensemble(cfg, keep_paths=True)
    m_inv = rotation_matrix(cfg.params.theta).T
    residual = paths[:, 2, :] @ m_inv.T - paths[:, 1, :]
    previous = paths[:, 0, :]
    n = len(previous)
    for i in range(2):
        for j in range(2):
            corr = np.corrcoef(residual[:, i], previous[:, j])[0, 1]
            assert abs(corr) < 4.0 / math.sqrt(n)


# --- analytic final distribution ------------------------------------------------------


def test_analytic_distribution_vacuum_cov():
    cfg = make_config(n_steps=20, tau=1.3, chi=0.05, n_bar=9.0)
    target = analytic_final_distribution(cfg)
    np.testing.assert_allclose(target.cov, 20.0 * np.eye(2), atol=1e-10)


def test_analytic_distribution_full_turn_mean():
    n = 16
    tau = 2.0 * math.pi / n  # omega = 1
    cfg = make_config(alpha0=2.0, chi=0.5, n_bar=1.0, tau=tau, n_steps=n)
    target = analytic_final_distribution(cfg)
    np.testing.assert_allclose(target.mean.as_array(), cfg.z0.as_array(), atol=1e-12)


def test_analytic_distribution_mean_is_classical_drift():
    cfg = make_config(alpha0=10.0, chi=0.5, n_bar=1.0, tau=math.pi / 15, n_steps=5)
    target = analytic_final_distribution(cfg)
    drift = classical_evolve(cfg.z0, cfg.params.omega, cfg.params.total_time)
    np.testing.assert_allclose(target.mean.as_array(), drift.as_array(), atol=1e-12)


def test_analytic_distribution_rejects_custom_seed():
    from kerrzeno.fock import FockVector

    cfg = make_config(n_steps=2)
    bad = ObservedRunConfig(
        z0=cfg.z0,
        params=cfg.params,
        spec=MeasurementSpec.custom(
            FockVector(amps=np.array([1.0 + 0j]), dim=1, tail_mass=0.0)
        ),
    )
    with pytest.raises(UnsupportedSeedError):
        analytic_final_distribution(bad)


# --- survival density --------------------------------------------------------------------


def survival_config(n, r=0.0, m=1, alpha0=2.0):
    tau = 2.0 * math.pi * m / n  # omega = 1
    return make_config(alpha0=alpha0, chi=0.5, n_bar=1.0, tau=tau, n_steps=n, r=r)


def test_survival_density_peak_value():
    value = survival_density_continuous(survival_config(10))
    assert abs(value - 1.0 / (20.0 * math.pi)) < 1e-15
    assert abs(value - 0.015915494309189534) < 1e-15


def test_survival_density_one_over_n_law():
    for n in (1, 7, 100, 999):
        value = survival_density_continuous(survival_config(n))
        assert abs(n * value * 2.0 * math.pi - 1.0) < 1e-12


def test_survival_density_squeezed_below_vacuum():
    n = 200
    squeezed = survival_density_continuous(survival_config(n, r=0.5))
    vacuum = survival_density_continuous(survival_config(n))
    assert squeezed < vacuum


def test_survival_density_off_peak_matches_gaussian():
    # away from a full turn the drift mismatch enters the exponent
    n = 8
    tau = (math.pi / 3.0) / n
    cfg = make_config(alpha0=2.0, chi=0.5, n_bar=1.0, tau=tau, n_steps=n)
    value = survival_density_continuous(cfg)
    c_n = accumulate_covariance(
        step_covariance(0.0, cfg.params.theta), cfg.params.theta, n
    )
    offset = rotation_matrix(-math.pi / 3.0) @ cfg.z0.as_array() - cfg.z0.as_array()
    expected = math.exp(-0.5 * offset @ np.linalg.inv(c_n) @ offset) / (
        2.0 * math.pi * math.sqrt(np.linalg.det(c_n))
    )
    assert abs(value - expected) < 1e-15


def test_no_freeze_out_versus_dichotomic_freeze():
    # the continuous family keeps spreading while the yes/no check locks in
    spec = MeasurementSpec.vacuum()
    continuous = [
        survival_density_continuous(survival_config(n)) for n in (1, 10, 100, 1000)
    ]
    dichotomic = [
        dichotomic_survival_exact(2.0, spec, chi=1.0, t=0.1, n_steps=n)
        for n in (1, 10, 100, 1000)
    ]
    assert all(a > b for a, b in zip(continuous, continuous[1:]))
    assert all(a < b for a, b in zip(dichotomic, dichotomic[1:]))
    assert continuous[-1] < 1e-3
    assert dichotomic[-1] > 0.99


# --- numerical kernel chain -----------------------------------------------------------------


def test_chain_check_single_step():
    cfg = make_config(alpha0=3.0, tau=2.0, chi=0.1, n_bar=1.0, n_steps=1, r=0.5)
    assert cfg.params.theta == pytest.approx(0.4)
    assert chain_convolution_check(cfg) < 1e-4


@pytest.mark.parametrize("r", [0.0, 0.5])
def test_chain_check_two_steps(r):
    cfg = make_config(alpha0=3.0, tau=1.0, chi=0.1, n_bar=1.0, n_steps=2, r=r)
    assert cfg.params.theta == pytest.approx(0.2)
    assert chain_convolution_check(cfg) < 1e-3


def test_chain_check_three_steps():
    cfg = make_config(alpha0=3.0, tau=1.0, chi=0.1, n_bar=1.0, n_steps=3, r=0.4)
    assert chain_convolution_check(cfg) < 1e-3


def test_chain_check_detects_omitted_rotation():
    cfg = make_config(alpha0=3.0, tau=1.0, chi=0.1, n_bar=1.0, n_steps=2, r=0.5)
    broken = chain_convolution_check(cfg, omit_rotation_step=1)
    assert broken > 0.05


def test_chain_check_validates_arguments():
    with pytest.raises(ValueError):
        chain_convolution_check(make_config(n_steps=4))
    with pytest.raises(ValueError):
        chain_convolution_check(make_config(n_steps=2), omit_rotation_step=2)
    with pytest.raises(ValueError):
        ConvolutionGrid(n_points=8)


# --- configuration ----------------------------------------------------------------------------


def test_run_config_validation():
    cfg = make_config()
    with pytest.raises(ValueError):
        ObservedRunConfig(
            z0=cfg.z0, params=cfg.params, spec=cfg.spec, n_trajectories=0
        )
    with pytest.raises(ValueError):
        run_trajectory(cfg, -1)
