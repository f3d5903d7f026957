"""Observed-chain sampling against its closed-form distribution."""

import dataclasses
import math
import tracemalloc
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
from oracles import box_muller, chain_convolution_check, classical_evolve, color_noise, phase_vector
from oracles import sample_chains as oracle_sample_chains
from oracles import survival_terms


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
    z0 = phase_vector(complex(alpha0))
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


def test_symmetric_sqrt_refuses_a_matrix_that_is_not_spd():
    with pytest.raises(ValueError, match="^c1 must be symmetric positive-definite$"):
        symmetric_sqrt_2x2(np.array([[1.0, 2.0], [2.0, 1.0]]))
    # the literal C_1 cancels to det < 0 at r = 10 and theta = 1.8e-9
    cfg = make_config(chi=1e-9, tau=0.1, r=10.0)
    with pytest.raises(ValueError, match="^c1 must be symmetric positive-definite$"):
        run_ensemble(cfg)


# --- single step -----------------------------------------------------------------


def test_sample_step_noiseless_is_pure_drift():
    # the production step z' = M (z + xi) with zero normals is the drift M z,
    # written over the noise it consumed
    rotation = rotation_matrix(0.7)
    sqrt_cov = symmetric_sqrt_2x2(step_covariance(0.4, 0.7))
    z = PhaseVector(1.5, -0.5)
    zeros = np.zeros((1, 1))
    xi = np.empty((1, 2, 1))
    xi[:, 0], xi[:, 1] = color_noise(zeros, zeros, sqrt_cov)
    assert observed._chain_points(z.as_array()[:, None], rotation, xi) is xi
    np.testing.assert_allclose(xi[0, :, 0], rotation_matrix(0.7) @ z.as_array(), atol=1e-15)


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
    # the ensemble spans two full chunks (8192 trajectories at 4 steps, 4096
    # at 65) and a partial one; a trajectory's final must not depend on the
    # chunk it lands in.  The two chain lengths sit on either side of the
    # vectorized-sampler threshold.
    assert 4 <= observed._VECTOR_MAX_STEPS < 65
    chunk = observed._chunk_layout(n_steps)[0]
    cfg = make_config(n_steps=n_steps, n_trajectories=2 * chunk + 808, master_seed=8)
    finals = run_ensemble(cfg)
    for k in (chunk, chunk + 1, chunk + 904):
        prefix = run_ensemble(dataclasses.replace(cfg, n_trajectories=k))
        assert np.array_equal(finals[:k], prefix)
    for index in (chunk - 1, chunk, 2 * chunk - 1, 2 * chunk):
        assert np.array_equal(finals[index], run_trajectory(cfg, index)[-1])


def test_ensemble_pieces_join_across_chunk_and_step_edges(monkeypatch):
    # chunks of at most 3 trajectories: 8 chains run in chunks of 3 + 3 + 2,
    # as whole streams at the real slice and in slices of 26 + 26 + 7 steps
    monkeypatch.setattr(observed, "_CHUNK_ROWS", 3)
    cfg = make_config(
        n_steps=observed._VECTOR_MAX_STEPS + 1, r=0.4, n_trajectories=8, master_seed=5
    )
    for slice_steps, span in ((observed._SLICE_STEPS, cfg.params.n_steps), (26, 26)):
        monkeypatch.setattr(observed, "_SLICE_STEPS", slice_steps)
        assert observed._chunk_layout(cfg.params.n_steps) == (3, span)
        paths = np.empty((cfg.n_trajectories, cfg.params.n_steps, 2))
        finals = observed._sample_chains(cfg, 0, cfg.n_trajectories, paths)
        assert np.array_equal(finals, run_ensemble(cfg))
        for index in range(cfg.n_trajectories):
            path = run_trajectory(cfg, index)
            assert np.array_equal(paths[index], path)
            assert np.array_equal(finals[index], path[-1])


@pytest.mark.parametrize(
    "constant, value, n_steps, chunk",
    [
        # chunks of 3 re-keyed streams: edges at 3, 6 and 9
        ("_CHUNK_ROWS", 3, observed._VECTOR_MAX_STEPS + 1, 3),
        # 8 Philox blocks hold four 4-step streams: edges at 4 and 8
        ("_VECTOR_BLOCKS", 8, 4, 4),
    ],
    ids=["re-keyed", "vector"],
)
def test_recorded_paths_match_trajectories_across_chunk_edges(
    monkeypatch, constant, value, n_steps, chunk
):
    # the paths run_ensemble records in its pass are run_trajectory's, bit for
    # bit, and recording them leaves the finals as they are
    monkeypatch.setattr(observed, constant, value)
    cfg = make_config(n_steps=n_steps, r=0.4, n_trajectories=10, master_seed=13)
    assert observed._chunk_layout(n_steps)[0] == chunk
    finals = run_ensemble(cfg)
    for k in (0, 1, chunk - 1, chunk + 1, cfg.n_trajectories):
        paths = np.full((k, n_steps, 2), np.nan)
        assert np.array_equal(run_ensemble(cfg, paths), finals)
        for index in range(k):
            assert np.array_equal(paths[index], run_trajectory(cfg, index))


@pytest.mark.parametrize(
    "paths",
    [
        np.empty((11, 5, 2)),  # more paths than trajectories
        np.empty((3, 4, 2)),
        np.empty((3, 6, 2)),
        np.empty((3, 5, 3)),
        np.empty((5, 2)),
        np.empty((3, 5, 2), dtype=np.float32),
        np.zeros((3, 5, 2)).tolist(),
    ],
    ids=["rows", "short", "long", "width", "2-d", "float32", "list"],
)
def test_ensemble_refuses_misshapen_paths(paths):
    cfg = make_config(n_steps=5, n_trajectories=10)
    with pytest.raises(ValueError, match=r"must be a float64 array of shape \(k, 5, 2\) with k <="):
        run_ensemble(cfg, paths)


@pytest.mark.parametrize("n_steps", [3, 65])
def test_trajectory_and_ensemble_paths_match_reference(n_steps):
    # both samplers against the scalar oracle, and the single-index call
    # against the ensemble bit for bit
    assert 3 <= observed._VECTOR_MAX_STEPS < 65
    cfg = make_config(n_steps=n_steps, r=0.3, n_trajectories=5, master_seed=17)
    paths = np.empty((cfg.n_trajectories, cfg.params.n_steps, 2))
    finals = observed._sample_chains(cfg, 0, cfg.n_trajectories, paths)
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
    assert observed._chunk_layout(n_steps) == (1048, n_steps)
    cfg = make_config(n_steps=n_steps, r=0.3, n_trajectories=2200, master_seed=23)
    paths = np.empty((cfg.n_trajectories, cfg.params.n_steps, 2))
    finals = observed._sample_chains(cfg, 0, cfg.n_trajectories, paths)
    assert np.array_equal(finals, run_ensemble(cfg))
    for index in (1047, 1048, 2095, 2096, 2199):
        path = run_trajectory(cfg, index)
        assert np.array_equal(paths[index], path)
        assert np.array_equal(finals[index], path[-1])
        np.testing.assert_allclose(path, reference_path(cfg, index), rtol=0, atol=1e-12)


def test_split_stream_keeps_stream_bits(monkeypatch):
    # in slices of at most 38 steps the three 100-step chains are one chunk,
    # drawn in slices of 38 + 38 + 24 steps, each re-keyed at its own Philox pair
    monkeypatch.setattr(observed, "_SLICE_STEPS", 38)
    drawn = []
    stream_noise = observed._stream_noise

    def recording_stream_noise(generator, state, indices, first, span, sqrt_cov):
        xi = stream_noise(generator, state, indices, first, span, sqrt_cov)
        drawn.append((indices.tolist(), first, xi.copy()))  # before the chain overwrites it
        return xi

    monkeypatch.setattr(observed, "_stream_noise", recording_stream_noise)
    cfg = make_config(n_steps=100, r=0.3, n_trajectories=3, master_seed=31)
    paths = np.empty((cfg.n_trajectories, cfg.params.n_steps, 2))
    finals = observed._sample_chains(cfg, 0, cfg.n_trajectories, paths)
    assert [(indices, first, xi.shape) for indices, first, xi in drawn] == [
        ([0, 1, 2], first, (span, 2, 3)) for first, span in ((0, 38), (38, 38), (76, 24))
    ]
    sqrt_cov = symmetric_sqrt_2x2(step_covariance(cfg.spec.r, cfg.params.theta))
    for index in range(cfg.n_trajectories):
        ref_q, ref_p = color_noise(*reference_normals(31, index, 100), sqrt_cov)
        assert np.array_equal(np.concatenate([xi[:, 0, index] for _, _, xi in drawn]), ref_q)
        assert np.array_equal(np.concatenate([xi[:, 1, index] for _, _, xi in drawn]), ref_p)
        np.testing.assert_allclose(paths[index], reference_path(cfg, index), rtol=0, atol=1e-12)
        assert np.array_equal(finals[index], paths[index, -1])


@pytest.mark.parametrize("r", [0.3, 0.0, 0.5, -1.3])
@pytest.mark.parametrize(
    "n_trajectories, n_steps, slice_steps",
    [
        # chunk edges at 1048 and 2096; both chunks end in a ragged 8-stream block
        (2200, 1000, None),
        (3, 64, None),  # a chunk smaller than one draw block
        (40, observed._VECTOR_MAX_STEPS + 1, None),  # the first generator length
        (3, 40, None),  # vector lengths, against the generator's stages
        (40, 39, None),
        (3, 100, 38),  # three chains drawn in slices of 38 + 38 + 24 steps
    ],
)
def test_sampler_keeps_whole_piece_pipeline_bits(
    monkeypatch, r, n_trajectories, n_steps, slice_steps
):
    # noise made per draw block and the in-place chain against the whole-piece
    # stages they replace: the same finals and paths, bit for bit
    if slice_steps is not None:
        monkeypatch.setattr(observed, "_SLICE_STEPS", slice_steps)
    cfg = make_config(n_steps=n_steps, r=r, n_trajectories=n_trajectories, master_seed=19)
    expected_finals, expected_paths = oracle_sample_chains(cfg, 0, n_trajectories)
    paths = np.empty((n_trajectories, cfg.params.n_steps, 2))
    finals = observed._sample_chains(cfg, 0, n_trajectories, paths)
    assert np.array_equal(paths, expected_paths)
    assert np.array_equal(finals, expected_finals)


def traced_peak(cfg) -> int:
    """Peak bytes tracemalloc sees while ``run_ensemble(cfg)`` runs."""
    tracemalloc.start()
    try:
        run_ensemble(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "n_trajectories, n_steps",
    [
        (2200, 1000),
        (1, 48 * observed._SLICE_STEPS + 1),
        (100_000, 2),
        (10_000, observed._VECTOR_MAX_STEPS),
    ],
    ids=["long-chunks", "lone-chain-in-pieces", "wide-vector-chunks", "longest-vector-chunks"],
)
def test_ensemble_working_memory_is_bounded(n_trajectories, n_steps):
    # the traced peak is one slice's scratch and the finals: no stage holds a
    # second chunk-sized array, and no array grows with the chain
    cfg = make_config(n_steps=n_steps, r=0.5, n_trajectories=n_trajectories, master_seed=3)
    run_ensemble(make_config(n_steps=observed._VECTOR_MAX_STEPS + 1))  # numpy's lazy imports
    chunk, span = observed._chunk_layout(n_steps)
    if n_steps <= observed._VECTOR_MAX_STEPS:
        words = (n_steps + 1) // 2 * chunk  # one uint64 per Philox block and stream
        # the indices and a round's key word, one uint64 a stream
        scratch = 2 * chunk + max(
            # four counter words, a round's two products and a product's four
            # scratch words
            10 * words,
            # the uniform pair (two words a block), made noise in place and
            # written into the noise (q and p), which the chain overwrites
            4 * words + 2 * n_steps * chunk,
        )
    else:
        width = min(observed._DRAW_BLOCK, chunk)
        scratch = (
            2 * chunk * span  # the slice's noise (q and p), overwritten by the chain
            + 2 * width * span  # the draw block's rows of the slice
            + 4 * width * span  # their uniform pair and their noise, made in place
        )
    budget = 8 * (scratch + 2 * n_trajectories) + 2**17  # the finals; 128 KB for objects
    assert traced_peak(cfg) <= budget


@pytest.mark.parametrize(
    "n_steps",
    [1, 2, 7, 8, 32, 33, observed._VECTOR_MAX_STEPS, observed._VECTOR_MAX_STEPS + 1,
     256, 257, 1000, 2**20, 2**20 + 1],
)
def test_chunk_layout_keeps_streams_whole(n_steps):
    # a vector chunk holds as many whole streams as _VECTOR_BLOCKS Philox
    # blocks allow; a re-keyed one at most _CHUNK_ROWS streams, drawn in
    # slices of at most _SLICE_STEPS steps and _CHUNK_ELEMENTS
    # trajectory-steps, which start on a Philox pair as _SLICE_STEPS is even
    assert observed._SLICE_STEPS % 2 == 0
    chunk, span = observed._chunk_layout(n_steps)
    if n_steps <= observed._VECTOR_MAX_STEPS:
        blocks = (n_steps + 1) // 2
        assert chunk * blocks <= observed._VECTOR_BLOCKS < (chunk + 1) * blocks
        assert span == n_steps
    else:
        assert 1 <= chunk <= observed._CHUNK_ROWS
        assert chunk * span <= observed._CHUNK_ELEMENTS
        assert span == min(n_steps, observed._SLICE_STEPS)


def test_long_chains_build_one_generator_per_call(monkeypatch):
    # 5000 chains of 300 steps run in two chunks of at most 4096
    # trajectories; one Philox is re-keyed for both, not one per trajectory
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(None)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    cfg = make_config(n_steps=300, n_trajectories=5000, master_seed=3)
    observed._sample_chains(cfg, 0, cfg.n_trajectories)
    assert len(built) == 1


# --- vectorized Philox sampler ------------------------------------------------------


@pytest.mark.parametrize("r", [0.0, 0.5, -0.7])
@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
def test_coloured_noise_matches_two_stage_tree(r, strided):
    # the in-place kernel against Box-Muller and colouring as new arrays, bit
    # for bit and signed zeros included: at u0 = 0 the radius is +0, so the
    # normals take the signs of cos and sin of (2 pi) u1; the generator's
    # uniforms fill the rest of the (steps, chains) planes
    u0, u1 = np.random.Generator(np.random.Philox(key=(5, 0))).random((2, 40, 101))
    edges0, edges1 = np.meshgrid([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53], [0.0, 0.25, 0.5, 0.75])
    u0[0, :16], u1[0, :16] = edges0.ravel(), edges1.ravel()
    sqrt_cov = symmetric_sqrt_2x2(step_covariance(r, 0.3))
    expected = color_noise(*box_muller(u0, u1), sqrt_cov)
    if strided:  # every third chain of a step-major (steps, 2, chains) array
        out_q, out_p = np.empty((40, 2, 3 * 101))[:, :, ::3].transpose(1, 0, 2)
    else:
        out_q, out_p = np.empty((2, 40, 101))
    observed._coloured_noise(u0, u1, sqrt_cov, out_q, out_p)
    for out, ref in zip((out_q, out_p), expected):
        assert np.array_equal(np.ascontiguousarray(out).view(np.uint64), ref.view(np.uint64))


def assert_chunk_matches_generators(seed, offset, length, n_steps):
    """Loop reference: one numpy Philox generator per trajectory; every
    wrap of the kernel stays in arrays, so no floating-point error is set."""
    indices = np.arange(offset, offset + length, dtype=np.uint64)
    with np.errstate(all="raise"):
        u0, u1 = observed._philox_uniforms(seed, indices, n_steps)
        n0, n1 = box_muller(u0, u1)
    assert u0.shape == u1.shape == (n_steps, length)
    for row, index in enumerate(indices.tolist()):
        gen = np.random.Generator(np.random.Philox(key=(seed, index)))
        u = gen.random((n_steps, 2))
        assert np.array_equal(u0[:, row], u[:, 0])
        assert np.array_equal(u1[:, row], u[:, 1])
        ref0, ref1 = reference_normals(seed, index, n_steps)
        assert np.array_equal(n0[:, row], ref0)
        assert np.array_equal(n1[:, row], ref1)


@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**63 - 1])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 32, 38, observed._VECTOR_MAX_STEPS, 64, 80])
@pytest.mark.parametrize("offset", [0, 4090, "chunk edge", observed.SEED_LIMIT - 12])
def test_vectorized_philox_matches_generators(seed, n_steps, offset):
    # the 12 trajectories from 4090 cross 4096, the chunk edge at 7-8 steps
    # and of re-keyed chunks, and from 6 below the first chunk edge of
    # n_steps they cross it; SEED_LIMIT - 12 ends at the last index, where
    # i + r W1 wraps mod 2**64 from round 1 on; 32 steps are 16 whole Philox
    # blocks, and 80 steps lie beyond the sampler's threshold, where the
    # function still holds
    if offset == "chunk edge":
        offset = observed._chunk_layout(n_steps)[0] - 6
    assert_chunk_matches_generators(seed, offset, 12, n_steps)


def test_vectorized_philox_matches_generators_on_a_full_chunk():
    # one whole chunk at the chain length of the wide ensembles, keyed by the
    # largest seed, whose k0 = seed + r W0 wraps mod 2**64
    chunk = observed._chunk_layout(2)[0]
    assert_chunk_matches_generators(observed.SEED_LIMIT - 1, 0, chunk, 2)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, observed.SEED_LIMIT - 1),
    length=st.integers(1, 300),
    n_steps=st.integers(1, observed._VECTOR_MAX_STEPS),
    data=st.data(),
)
def test_vectorized_philox_property(seed, length, n_steps, data):
    offset = data.draw(st.integers(0, observed.SEED_LIMIT - length), label="offset")
    assert_chunk_matches_generators(seed, offset, length, n_steps)


@pytest.mark.parametrize("seed", [-1, 2**63, 2**64, float("inf"), float("nan")])
def test_run_config_rejects_seed_outside_domain(seed):
    with pytest.raises(ValueError, match="master_seed"):
        make_config(master_seed=seed)


@pytest.mark.parametrize("seed", [3.0, np.int64(3)], ids=["float", "int64"])
@pytest.mark.parametrize("n_steps", [10, 40, 64])
def test_run_config_reads_integral_seeds_as_int(seed, n_steps):
    # both sides of the vectorized-sampler threshold draw Philox key (3, i)
    assert 40 <= observed._VECTOR_MAX_STEPS < 64
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
    paths = np.empty((cfg.n_trajectories, cfg.params.n_steps, 2))
    observed._sample_chains(cfg, 0, cfg.n_trajectories, paths)
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
    drift = classical_evolve(cfg.z0, cfg.params.omega, cfg.params.n_steps * cfg.params.tau)
    np.testing.assert_allclose(target.mean.as_array(), drift.as_array(), atol=1e-12)


# --- survival density --------------------------------------------------------------------


def survival(n, r=0.0):
    """p_N(z0 | z0) from alpha0 = 2 at theta = 2 pi / N, one turn in N steps."""
    return survival_density_continuous(phase_vector(2.0), r, 2.0 * math.pi / n, n)


@pytest.mark.parametrize("r", [0.0, 0.5, -0.7])
def test_survival_terms_over_arrays_keep_the_float_bits(r):
    # away from home the drift mismatch enters; theta = 2 pi k / N is home
    ns = np.arange(1, 601)
    thetas = np.where(ns % 3 == 0, 2.0 * math.pi * (ns % 7) / ns, 0.01 * ns - 2.5)
    got = survival_density_continuous(PhaseVector(1.5, -0.4), r, thetas, ns)
    want = [survival_terms(1.5, -0.4, r, t, n) for t, n in zip(thetas.tolist(), ns.tolist())]
    exponents, norms = np.array(want).T
    assert got.shape == ns.shape
    assert np.array_equal(got.view(np.uint64), (np.exp(exponents) / norms).view(np.uint64))
    # a float theta and n give a float with the bits of their element
    one = survival_density_continuous(PhaseVector(1.5, -0.4), r, thetas[4].item(), 5)
    assert isinstance(one, float)
    assert one == got[4]


def test_survival_density_refuses_the_first_n_over_arrays():
    # r = 177, m = 1e9: C_N overflows at N = 6, before C_1 cancels at N = 8
    ns = np.arange(1, 9)
    thetas = 2.0 * math.pi * 1e9 / ns
    overflow = r"^2x2 determinant overflows double precision \(largest entry 1\.650e\+154\)$"
    with pytest.raises(ValueError, match=overflow):
        survival_density_continuous(PhaseVector(2.0, 0.0), 177.0, thetas, ns)
    with pytest.raises(ValueError, match=overflow):
        survival_density_continuous(PhaseVector(2.0, 0.0), 177.0, thetas[5].item(), 6)
    with pytest.raises(ValueError, match="^c1 must be symmetric positive-definite$"):
        survival_density_continuous(PhaseVector(2.0, 0.0), 177.0, thetas[7:], ns[7:])
    survival_density_continuous(PhaseVector(2.0, 0.0), 177.0, thetas[:5], ns[:5])


def test_survival_density_peak_value():
    value = survival(10)
    assert abs(value - 1.0 / (20.0 * math.pi)) < 1e-15
    assert abs(value - 0.015915494309189534) < 1e-15


def test_survival_density_one_over_n_law():
    for n in (1, 7, 100, 999):
        value = survival(n)
        assert abs(n * value * 2.0 * math.pi - 1.0) < 1e-12


def test_survival_density_squeezed_below_vacuum():
    n = 200
    squeezed = survival(n, r=0.5)
    vacuum = survival(n)
    assert squeezed < vacuum


def test_survival_density_off_peak_matches_gaussian():
    # away from a full turn the drift mismatch enters the exponent
    n = 8
    tau = (math.pi / 3.0) / n
    cfg = make_config(alpha0=2.0, chi=0.5, n_bar=1.0, tau=tau, n_steps=n)
    value = survival_density_continuous(cfg.z0, cfg.spec.r, cfg.params.theta, n)
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
    continuous = [survival(n) for n in (1, 10, 100, 1000)]
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


@pytest.mark.parametrize("n_steps", [5.0, 40.0, 64.0])
def test_integral_float_counts_run_as_int(n_steps):
    # 5.0 and 40.0 run the vectorized sampler, 64.0 the re-keyed generator
    assert 40 <= observed._VECTOR_MAX_STEPS < 64
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
