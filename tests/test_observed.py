"""Observed-chain sampling against its closed-form distribution."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrzeno import observed
from kerrzeno.fock import MeasurementSpec, dichotomic_survival_exact, displaced_seed
from kerrzeno.observed import (
    ObservedRunConfig,
    analytic_final_distribution,
    run_ensemble,
    run_trajectory,
    survival_density_continuous,
    symmetric_sqrt_2x2,
)
from kerrzeno.phase_space import (
    EvolutionParams,
    PhaseVector,
    accumulate_covariance,
    rotation_matrix,
    step_covariance,
)
from oracles import chain_convolution_check, classical_evolve


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
    spec = MeasurementSpec(r)
    return ObservedRunConfig(
        z0=z0,
        params=EvolutionParams(chi=chi, n_bar=n_bar, tau=tau, n_steps=n_steps),
        spec=spec,
        n_trajectories=n_trajectories,
        master_seed=master_seed,
    )


def reference_normals(seed, index, n_steps):
    """Oracle normals: one numpy Philox generator keyed (seed, index), its
    uniforms 2j and 2j + 1 turned into step j's pair by Box-Muller."""
    u = np.random.Generator(np.random.Philox(key=(seed, index))).random((n_steps, 2))
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    angle = 2.0 * math.pi * u[:, 1]
    return radius * np.cos(angle), radius * np.sin(angle)


def reference_path(cfg, index):
    """Oracle path of one trajectory: z -> M (z + sqrt(C_1) n_j), step by step."""
    n0, n1 = reference_normals(cfg.master_seed, index, cfg.params.n_steps)
    root = symmetric_sqrt_2x2(step_covariance(cfg.spec.r, cfg.params.theta))
    rot = rotation_matrix(cfg.params.theta)
    z = cfg.z0.as_array()
    points = []
    for a, b in zip(n0, n1):
        z = rot @ (z + root @ np.array([a, b]))
        points.append(z)
    return np.array(points)


# --- step kernel --------------------------------------------------------------


@pytest.mark.parametrize("theta", [0.0, 0.1, 1.2])
def test_kernel_vacuum_has_unit_covariance(theta):
    np.testing.assert_allclose(
        step_covariance(MeasurementSpec.vacuum().r, theta), np.eye(2), atol=1e-15
    )


def test_symmetric_sqrt():
    c = step_covariance(0.7, 0.4)
    root = symmetric_sqrt_2x2(c)
    np.testing.assert_allclose(root @ root, c, atol=1e-14)
    np.testing.assert_allclose(root, root.T, atol=1e-15)


def test_symmetric_sqrt_rejects_overflowing_determinant():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="determinant overflows"):
            symmetric_sqrt_2x2(np.diag([1e200, 1e200]))


# --- single step -----------------------------------------------------------------


def test_sample_step_noiseless_is_pure_drift():
    # the production step z' = M (z + xi) with zero normals is the drift M z
    rotation = rotation_matrix(0.7)
    sqrt_cov = symmetric_sqrt_2x2(step_covariance(0.4, 0.7))
    z = PhaseVector(1.5, -0.5)
    zeros = np.zeros(1)
    xi_q, xi_p = observed._color_noise(zeros, zeros, sqrt_cov)
    out_q, out_p = observed._chain_points(z.q, z.p, rotation, xi_q, xi_p)
    np.testing.assert_allclose(
        [out_q[0], out_p[0]], rotation_matrix(0.7) @ z.as_array(), atol=1e-15
    )


def test_single_step_ensemble_moments():
    # one observed step z' = M (z + xi): mean the pure drift M z, and the
    # de-rotated residual carries the step covariance C_1
    theta, r = 0.3, 0.5
    cfg = make_config(chi=0.1, n_bar=1.5, tau=1.0, n_steps=1, r=r,
                      n_trajectories=100_000, master_seed=11)
    cfg = dataclasses.replace(cfg, z0=PhaseVector(2.0, 1.0))
    assert cfg.params.theta == pytest.approx(theta, abs=1e-15)
    draws = run_ensemble(cfg)
    n = len(draws)
    z = cfg.z0.as_array()
    c1 = step_covariance(r, theta)
    rot = rotation_matrix(theta)
    drift = rot @ z
    cov_out = rot @ c1 @ rot.T
    mean_err = np.linalg.norm(draws.mean(axis=0) - drift)
    assert mean_err < 4.0 * math.sqrt(np.trace(cov_out) / n)
    residual = draws @ rot - z  # M^-1 z' - z rowwise
    sample_cov = np.cov(residual.T, ddof=1)
    diag = np.diag(c1)
    se = np.sqrt((np.outer(diag, diag) + c1**2) / n)
    assert np.all(np.abs(sample_cov - c1) < 5.0 * se)


# --- trajectories ------------------------------------------------------------------


def test_single_step_trajectory_reduces_to_sample_step():
    cfg = make_config(n_steps=1, tau=0.5, r=0.4, master_seed=5)
    path = run_trajectory(cfg, 3)

    # independent reconstruction of the documented noise derivation
    gen = np.random.Generator(np.random.Philox(key=(5, 3)))
    u = gen.random((1, 2))
    radius = math.sqrt(-2.0 * math.log1p(-u[0, 0]))
    normals = np.array([radius * math.cos(2 * math.pi * u[0, 1]),
                        radius * math.sin(2 * math.pi * u[0, 1])])

    # M (z0 + sqrt_cov @ normals), with M the classical drift rotation, so
    # the noise-free part of the step is the pure drift M z0
    sqrt_cov = symmetric_sqrt_2x2(step_covariance(0.4, cfg.params.theta))
    rot = rotation_matrix(cfg.params.theta)
    expected = rot @ (cfg.z0.as_array() + sqrt_cov @ normals)
    np.testing.assert_allclose(path[-1], expected, atol=1e-14)


def test_trajectory_record_shape_and_times():
    cfg = make_config(n_steps=7, tau=0.25)
    assert run_trajectory(cfg, 0).shape == (7, 2)


def test_trajectory_reruns_bit_identical():
    cfg = make_config(n_steps=12, master_seed=99)
    a = run_trajectory(cfg, 4)
    b = run_trajectory(cfg, 4)
    assert np.array_equal(a, b)
    c = run_trajectory(cfg, 5)
    assert not np.array_equal(a, c)


def test_ensemble_matches_individual_trajectories():
    cfg = make_config(n_steps=5, n_trajectories=1000, master_seed=42)
    finals = run_ensemble(cfg)
    for index in (0, 17, 999):
        np.testing.assert_array_equal(finals[index], run_trajectory(cfg, index)[-1])


@pytest.mark.parametrize("n_steps", [4, 65])
def test_ensemble_chunking_invariance(n_steps):
    # 9000 trajectories span two full 4096-trajectory chunks and a partial one;
    # a trajectory's final must not depend on the chunk it lands in.  The two
    # chain lengths sit on either side of the vectorized-sampler threshold.
    assert 4 <= observed._VECTOR_MAX_STEPS < 65
    cfg = make_config(n_steps=n_steps, n_trajectories=9000, master_seed=8)
    finals = run_ensemble(cfg)
    for k in (4096, 4097, 5000):
        prefix = run_ensemble(dataclasses.replace(cfg, n_trajectories=k))
        assert np.array_equal(finals[:k], prefix)
    for index in (4095, 4096, 8191, 8192):
        assert np.array_equal(finals[index], run_trajectory(cfg, index)[-1])


def test_ensemble_pieces_join_across_chunk_and_step_edges(monkeypatch):
    # chunks of at most 3 trajectories: at 3 n_steps trajectory-steps 8 chains
    # run as whole streams in chunks of 3 + 3 + 2; at 26 each chain is its own
    # chunk, drawn in pieces of 26 + 7 steps
    monkeypatch.setattr(observed, "_CHUNK_ROWS", 3)
    cfg = make_config(
        n_steps=observed._VECTOR_MAX_STEPS + 1, r=0.4, n_trajectories=8, master_seed=5
    )
    for elements in (3 * cfg.params.n_steps, 26):
        monkeypatch.setattr(observed, "_CHUNK_ELEMENTS", elements)
        finals, paths = observed._sample_chains(cfg, 0, cfg.n_trajectories, keep_paths=True)
        assert np.array_equal(finals, run_ensemble(cfg))
        for index in range(cfg.n_trajectories):
            path = run_trajectory(cfg, index)
            assert np.array_equal(paths[index], path)
            assert np.array_equal(finals[index], path[-1])


@pytest.mark.parametrize("n_steps", [3, 65])
def test_trajectory_and_ensemble_paths_match_reference(n_steps):
    # both samplers against the scalar oracle, and the single-index call
    # against the ensemble bit for bit
    assert 3 <= observed._VECTOR_MAX_STEPS < 65
    cfg = make_config(n_steps=n_steps, r=0.3, n_trajectories=5, master_seed=17)
    finals, paths = observed._sample_chains(cfg, 0, cfg.n_trajectories, keep_paths=True)
    for index in range(cfg.n_trajectories):
        expected = reference_path(cfg, index)
        path = run_trajectory(cfg, index)
        np.testing.assert_allclose(path, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(paths[index], expected, rtol=0, atol=1e-12)
        assert np.array_equal(path, paths[index])
        assert np.array_equal(finals[index], paths[index, -1])


def test_long_chain_chunk_edges_match_trajectories():
    # at the real constants 1000-step chains run as whole streams, 1048 to a
    # chunk, so an ensemble of 2200 has chunk edges at 1048 and 2096
    n_steps = 1000
    assert min(observed._CHUNK_ROWS, observed._CHUNK_ELEMENTS // n_steps) == 1048
    cfg = make_config(n_steps=n_steps, r=0.3, n_trajectories=2200, master_seed=23)
    finals, paths = observed._sample_chains(cfg, 0, cfg.n_trajectories, keep_paths=True)
    assert np.array_equal(finals, run_ensemble(cfg))
    for index in (1047, 1048, 2095, 2096, 2199):
        path = run_trajectory(cfg, index)
        assert np.array_equal(paths[index], path)
        assert np.array_equal(finals[index], path[-1])
        np.testing.assert_allclose(path, reference_path(cfg, index), rtol=0, atol=1e-12)


def test_split_stream_keeps_stream_bits(monkeypatch):
    # at 38 trajectory-steps each 100-step chain is its own chunk, drawn in
    # pieces of 38 + 38 + 24 steps, each re-keyed at its own Philox pair
    monkeypatch.setattr(observed, "_CHUNK_ELEMENTS", 38)
    drawn = []
    stream_rows = observed._stream_rows

    def recording_stream_rows(generator, state, indices, first, span):
        u = stream_rows(generator, state, indices, first, span)
        drawn.append((int(indices[0]), first, observed._box_muller(u[0], u[1])))
        return u

    monkeypatch.setattr(observed, "_stream_rows", recording_stream_rows)
    cfg = make_config(n_steps=100, r=0.3, n_trajectories=3, master_seed=31)
    finals, paths = observed._sample_chains(cfg, 0, cfg.n_trajectories, keep_paths=True)
    assert [(index, first, n0.shape) for index, first, (n0, _) in drawn] == [
        (index, first, (span, 1))
        for index in range(cfg.n_trajectories)
        for first, span in ((0, 38), (38, 38), (76, 24))
    ]
    for index in range(cfg.n_trajectories):
        ref0, ref1 = reference_normals(31, index, 100)
        pieces = [normals for i, _, normals in drawn if i == index]
        assert np.array_equal(np.concatenate([n0 for n0, _ in pieces])[:, 0], ref0)
        assert np.array_equal(np.concatenate([n1 for _, n1 in pieces])[:, 0], ref1)
        np.testing.assert_allclose(paths[index], reference_path(cfg, index), rtol=0, atol=1e-12)
        assert np.array_equal(finals[index], paths[index, -1])


@pytest.mark.parametrize("n_steps", [1, 32, 33, 256, 257, 1000, 2**20, 2**20 + 1])
def test_chunk_layout_keeps_streams_whole(n_steps):
    # a chunk holds whole streams unless it is one chain, whose pieces start
    # on a Philox pair because _CHUNK_ELEMENTS is even
    assert observed._CHUNK_ELEMENTS % 2 == 0
    chunk, span = observed._chunk_layout(n_steps)
    assert 1 <= chunk <= observed._CHUNK_ROWS
    assert chunk * n_steps <= observed._CHUNK_ELEMENTS or chunk == 1
    assert span == n_steps or (chunk == 1 and span == observed._CHUNK_ELEMENTS)


def test_long_chains_build_one_generator_per_call(monkeypatch):
    # 5000 chains of 300 steps run in two chunks of at most 2**20 // 300
    # trajectories; one Philox is re-keyed for both, not one per trajectory
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(None)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    cfg = make_config(n_steps=300, n_trajectories=5000, master_seed=3)
    observed._sample_chains(cfg, 0, cfg.n_trajectories, keep_paths=False)
    assert len(built) == 1


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
        ref0, ref1 = reference_normals(seed, int(index), n_steps)
        assert np.array_equal(n0[:, row], ref0)
        assert np.array_equal(n1[:, row], ref1)


@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**63 - 1])
@pytest.mark.parametrize("n_steps", [1, 2, 3, observed._VECTOR_MAX_STEPS, 64])
@pytest.mark.parametrize("offset", [0, 4090])
def test_vectorized_philox_matches_generators(seed, n_steps, offset):
    # offset 4090 with 12 trajectories crosses the 4096 chunk edge; 64 steps
    # lie beyond the sampler's threshold, where the function still holds
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


@pytest.mark.parametrize("seed", [-1, 2**63, 2**64, float("inf"), float("nan")])
def test_run_config_rejects_seed_outside_domain(seed):
    with pytest.raises(ValueError, match="master_seed"):
        make_config(master_seed=seed)


@pytest.mark.parametrize("seed", [3.0, np.int64(3)], ids=["float", "int64"])
@pytest.mark.parametrize("n_steps", [10, 40])
def test_run_config_reads_integral_seeds_as_int(seed, n_steps):
    # both sides of the vectorized-sampler threshold draw Philox key (3, i)
    cfg = make_config(n_steps=n_steps, n_trajectories=20, master_seed=seed)
    assert type(cfg.master_seed) is int
    expected = run_ensemble(make_config(n_steps=n_steps, n_trajectories=20, master_seed=3))
    assert np.array_equal(run_ensemble(cfg), expected)


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
    _, paths = observed._sample_chains(cfg, 0, cfg.n_trajectories, keep_paths=True)
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
    psi0 = displaced_seed(MeasurementSpec.vacuum(), 2.0)
    continuous = [
        survival_density_continuous(survival_config(n)) for n in (1, 10, 100, 1000)
    ]
    dichotomic = [dichotomic_survival_exact(psi0, 0.1, n) for n in (1, 10, 100, 1000)]
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


# --- configuration ----------------------------------------------------------------------------


def test_run_config_validation():
    cfg = make_config()
    with pytest.raises(ValueError):
        ObservedRunConfig(
            z0=cfg.z0, params=cfg.params, spec=cfg.spec, n_trajectories=0
        )
    with pytest.raises(ValueError):
        run_trajectory(cfg, -1)


@pytest.mark.parametrize("n_steps", [5.0, 40.0])
def test_integral_float_counts_run_as_int(n_steps):
    # 5.0 and 40.0 sit on both sides of the vectorized-sampler threshold
    cfg = make_config(n_steps=n_steps, n_trajectories=3.0)
    assert type(cfg.params.n_steps) is int and type(cfg.n_trajectories) is int
    expected = make_config(n_steps=int(n_steps), n_trajectories=3)
    assert np.array_equal(run_ensemble(cfg), run_ensemble(expected))
    assert np.array_equal(run_trajectory(cfg, 2.0), run_trajectory(expected, 2))


@pytest.mark.parametrize("bad", [2.5, float("inf"), float("nan"), -1])
def test_counts_refuse_non_integral_or_negative_values(bad):
    for field in ("n_steps", "n_trajectories"):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make_config(**{field: bad})
    with pytest.raises(ValueError, match="trajectory_index"):
        run_trajectory(make_config(), bad)


@pytest.mark.parametrize("n_steps", [10, 70])
@pytest.mark.parametrize("index", [2**63, 2**64 - 2])
def test_run_trajectory_rejects_index_beyond_seed_limit(index, n_steps):
    # both ways of drawing read the exact key only below 2**63
    with pytest.raises(ValueError, match="trajectory_index"):
        run_trajectory(make_config(n_steps=n_steps), index)
