"""
Observed Kerr evolution: a Markov chain of Gaussian measurement kernels.

Given the previous outcome z, one evolution-plus-measurement step draws

    z' = M(theta) (z + xi),    xi ~ N(0, C_1(r, theta)),

so after N steps the outcome is Gaussian with mean M(N theta) z0 -- the
undisturbed drift of the mean-field amplitude -- and covariance
M^N C_N M^N^T, with C_N the accumulated step covariance.  Observation
never stalls the motion; it only broadens the cloud around the drift, and
at matched return times the outcome density at the starting point falls
like 1/N.  This module provides the trajectory sampler, the closed-form
final distribution and that survival density.

The sampler hands out plain arrays: ``run_ensemble`` the
(n_trajectories, 2) final outcomes and ``run_trajectory`` one
(n_steps, 2) path, whose row j - 1 is the outcome of step j at time
j * tau.  Its step is the two matrices M(theta) = ``rotation_matrix`` and
the symmetric square root of ``step_covariance(r, theta)``.

Randomness
----------
Trajectory ``i`` of a run keyed by ``master_seed`` owns the Philox
counter stream keyed ``(master_seed, i)``, with both keys in ``[0, 2**63)``
(numpy reads larger tuple keys through float64, so distinct keys there
would share streams); step ``j`` consumes uniforms
``2j`` and ``2j + 1`` of that stream, turned into normals by Box-Muller.
Results are therefore bit-identical however trajectories are chunked.

One chain sampler serves any range of trajectory indices: the whole
ensemble, one trajectory, or the recorded paths of an experiment.  It runs
chunks of whole streams, at most 4096 chains and 2**20 trajectory-steps,
so the working arrays stay bounded; only a lone chain of more than 2**20
steps is drawn in pieces of 2**20 steps.  Chains of at most 32 steps
evaluate Philox4x64-10, a pure function of (key, counter), in numpy across
a chunk.  Longer chains draw from one ``np.random.Philox`` per call,
re-keyed per stream and piece through its public ``state``; each stream
fills its own row, and blocks of 64 rows are transposed into the
step-major layout the chain loop reads.  Both ways give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import MeasurementSpec
from .phase_space import (
    EvolutionParams,
    GaussianState2D,
    PhaseVector,
    _check_covariance,
    _det_2x2,
    _dirichlet_sum,
    _gaussian_terms,
    _require_int,
    _step_entries,
    accumulate_covariance,
    rotation_matrix,
    step_covariance,
)

__all__ = [
    "ObservedRunConfig",
    "symmetric_sqrt_2x2",
    "run_trajectory",
    "run_ensemble",
    "analytic_final_distribution",
    "survival_density_continuous",
    "SEED_LIMIT",
]

# Exclusive upper bound of master_seed and of trajectory indices: below it
# every (seed, index) tuple key reaches Philox exactly.
SEED_LIMIT = 2**63

# Ensembles of chains up to this many steps evaluate Philox in numpy across
# the chunk; above it re-keyed C generators drawing contiguous rows are
# faster.  Normals of a 4096-trajectory chunk, median of 7, one pinned core
# of a 2-core Xeon with numpy 2.4.6: 4.0 vs 5.0 us per trajectory at 16
# steps, 7.0 vs 7.1 at 28, 7.8 vs 7.4 at 32 and 17.3 vs 12.0 at 64.
_VECTOR_MAX_STEPS = 32

# Philox4x64-10 round multipliers and Weyl key increments (Salmon et al.,
# "Parallel random numbers: as easy as 1, 2, 3", SC'11), as in numpy.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Ensembles run in chunks of at most _CHUNK_ROWS trajectories and
# _CHUNK_ELEMENTS trajectory-steps, so each float64 array stays within 8 MB;
# only a chain longer than _CHUNK_ELEMENTS steps is drawn in pieces, and as
# _CHUNK_ELEMENTS is even each piece starts on a Philox pair.
_CHUNK_ROWS = 4096
_CHUNK_ELEMENTS = 2**20

# Long chains draw in blocks of this many streams, and a block's rows (1 MB
# of 1000-step streams) are transposed while still in cache: 21-25 ms
# against 26-41 ms for a 1048 x 1000-step piece drawn whole, then copied.
_DRAW_BLOCK = 64

# Total accumulated angles closer than this to a multiple of 2 pi are
# treated as exact returns when evaluating the survival density.
_RETURN_ANGLE_TOL = 1e-9


def symmetric_sqrt_2x2(c: np.ndarray) -> np.ndarray:
    """Symmetric square root of an SPD 2x2 matrix, (C + sqrt(det) I)/t.

    Raises ValueError when the determinant overflows.
    """
    _det_2x2(*c.ravel().tolist())  # overflow check; s keeps np.linalg.det's rounding
    s = math.sqrt(float(np.linalg.det(c)))
    t = math.sqrt(float(c[0, 0] + c[1, 1]) + 2.0 * s)
    return (c + s * np.eye(2)) / t


@dataclass(frozen=True)
class ObservedRunConfig:
    """Inputs of one observed run (initial point, step params, seed state)."""

    z0: PhaseVector
    params: EvolutionParams
    spec: MeasurementSpec
    n_trajectories: int = 1
    master_seed: int = 0

    def __post_init__(self) -> None:
        n_trajectories = _require_int(self.n_trajectories, "n_trajectories")
        seed = _require_int(self.master_seed, "master_seed", 0, SEED_LIMIT)
        object.__setattr__(self, "n_trajectories", n_trajectories)
        object.__setattr__(self, "master_seed", seed)


def _box_muller(u0: np.ndarray, u1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two standard normals per uniform pair; the one expression tree shared
    by the generator and the vectorized streams."""
    radius = np.sqrt(-2.0 * np.log1p(-u0))
    angle = 2.0 * math.pi * u1
    return radius * np.cos(angle), radius * np.sin(angle)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of m * x, the high word from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    lh, hl = m_lo * x_hi, m_hi * x_lo
    mid = ((m_lo * x_lo) >> _SHIFT32) + (lh & _LO32) + (hl & _LO32)
    hi = m_hi * x_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return np.uint64(m) * x, hi


def _philox_uniforms(
    master_seed: int, indices: np.ndarray, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniforms 2j and 2j + 1 of every stream (master_seed, i), i in indices.

    Returns two (n_steps, len(indices)) arrays whose columns equal
    ``Generator(Philox(key=(master_seed, i))).random((n_steps, 2))[:, 0]``
    and ``[:, 1]`` bit for bit.  numpy's Philox increments its 4-word
    counter before each block, so block c = 1, 2, ... yields words
    4(c - 1) ... 4c - 1, and a double is (word >> 11) * 2**-53.  The key
    schedule stays in Python ints, so no numpy scalar wraps around.
    """
    n_blocks = (n_steps + 1) // 2
    shape = (n_blocks, len(indices))
    c0 = np.broadcast_to(np.arange(1, n_blocks + 1, dtype=np.uint64)[:, None], shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    index_key = np.asarray(indices, dtype=np.uint64)
    for r in range(10):
        k0 = np.uint64((master_seed + r * _PHILOX_W0) % 2**64)
        k1 = index_key + np.uint64(r * _PHILOX_W1 % 2**64)
        lo0, hi0 = _mulhilo(_PHILOX_M0, c0)
        lo1, hi1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    # step 2b reads words 0, 1 of block b and step 2b + 1 words 2, 3
    u0 = np.stack([c0, c2], axis=1).reshape(2 * n_blocks, -1)[:n_steps]
    u1 = np.stack([c1, c3], axis=1).reshape(2 * n_blocks, -1)[:n_steps]
    return (u0 >> np.uint64(11)) * 2.0**-53, (u1 >> np.uint64(11)) * 2.0**-53


def _color_noise(n0: np.ndarray, n1: np.ndarray, sqrt_cov: np.ndarray):
    """Componentwise coloring; one fixed expression tree per element, so a
    trajectory rounds alike in a chunk of any size."""
    return (
        sqrt_cov[0, 0] * n0 + sqrt_cov[0, 1] * n1,
        sqrt_cov[1, 0] * n0 + sqrt_cov[1, 1] * n1,
    )


def _chain_points(zq, zp, rotation: np.ndarray, xi_q, xi_p):
    """Iterate z -> M (z + xi_j) over the leading step axis of xi."""
    m00, m01 = rotation[0, 0], rotation[0, 1]
    m10, m11 = rotation[1, 0], rotation[1, 1]
    out_q = np.empty_like(xi_q)
    out_p = np.empty_like(xi_p)
    for j in range(xi_q.shape[0]):
        sq, sp = zq + xi_q[j], zp + xi_p[j]
        zq, zp = m00 * sq + m01 * sp, m10 * sq + m11 * sp
        out_q[j], out_p[j] = zq, zp
    return out_q, out_p


def _stream_rows(generator, state: dict, indices: np.ndarray, first: int, span: int):
    """Uniform pairs first .. first + span - 1 of each stream, as (2, span, n).

    Per stream the generator takes ``state`` keyed (master_seed, i) at
    counter first // 2, so ``first`` must be even.  Rows are drawn
    _DRAW_BLOCK streams at a time and transposed while in cache.
    """
    state["state"]["counter"][0] = first // 2
    u = np.empty((2, span, len(indices)))
    rows = np.empty((min(_DRAW_BLOCK, len(indices)), span, 2))
    for lo in range(0, len(indices), _DRAW_BLOCK):
        block = rows[: len(indices) - lo]
        for index, row in zip(indices[lo : lo + _DRAW_BLOCK].tolist(), block):
            state["state"]["key"][1] = index
            generator.bit_generator.state = state
            generator.random(out=row)
        u[:, :, lo : lo + len(block)] = block.transpose(2, 1, 0)
    return u


def _chunk_layout(n: int) -> tuple[int, int]:
    """Trajectories per chunk and steps per piece for chains of n steps."""
    return min(_CHUNK_ROWS, max(1, _CHUNK_ELEMENTS // n)), min(n, _CHUNK_ELEMENTS)


def _sample_chains(
    cfg: ObservedRunConfig, lo: int, hi: int, keep_paths: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Finals (hi - lo, 2) of trajectories lo..hi-1, and with ``keep_paths``
    their paths (hi - lo, n_steps, 2); trajectory i lands at row i - lo.

    The one chain sampler, behind ``run_ensemble`` (0..n_trajectories-1),
    ``run_trajectory`` (one index) and the recorded paths of the
    ``trajectories`` experiment (one batched call).
    """
    theta = cfg.params.theta
    rotation = rotation_matrix(theta)
    sqrt_cov = symmetric_sqrt_2x2(step_covariance(cfg.spec.r, theta))
    n = cfg.params.n_steps
    chunk, span = _chunk_layout(n)
    if n > _VECTOR_MAX_STEPS:
        generator = np.random.Generator(np.random.Philox(key=(cfg.master_seed, 0)))
        state = generator.bit_generator.state  # counter 0, empty buffer
    finals = np.empty((hi - lo, 2))
    paths = np.empty((hi - lo, n, 2)) if keep_paths else None
    for start in range(lo, hi, chunk):
        indices = np.arange(start, min(start + chunk, hi), dtype=np.uint64)
        rows = slice(start - lo, start - lo + len(indices))
        zq, zp = cfg.z0.q, cfg.z0.p
        for first in range(0, n, span):
            if n <= _VECTOR_MAX_STEPS:
                n0, n1 = _box_muller(*_philox_uniforms(cfg.master_seed, indices, n))
            else:
                count = min(span, n - first)
                n0, n1 = _box_muller(*_stream_rows(generator, state, indices, first, count))
            xi_q, xi_p = _color_noise(n0, n1, sqrt_cov)
            out_q, out_p = _chain_points(zq, zp, rotation, xi_q, xi_p)
            if paths is not None:
                paths[rows, first : first + len(out_q), 0] = out_q.T
                paths[rows, first : first + len(out_q), 1] = out_p.T
            zq, zp = out_q[-1].copy(), out_p[-1].copy()
            # free this piece before the next one is drawn
            del n0, n1, xi_q, xi_p, out_q, out_p
        finals[rows, 0] = zq
        finals[rows, 1] = zp
    return finals, paths


def run_trajectory(cfg: ObservedRunConfig, trajectory_index: int) -> np.ndarray:
    """The (n_steps, 2) outcome path of one trajectory; row j - 1 is step j.

    Bit for bit the path that trajectory has in any ensemble of ``cfg``.
    Raises ValueError unless ``trajectory_index`` is an integer in
    ``[0, SEED_LIMIT)``.
    """
    index = _require_int(trajectory_index, "trajectory_index", 0, SEED_LIMIT)
    _, paths = _sample_chains(cfg, index, index + 1, keep_paths=True)
    return paths[0]


def run_ensemble(cfg: ObservedRunConfig) -> np.ndarray:
    """Final outcomes of all trajectories, shape (n_trajectories, 2).

    Row i is trajectory i's last outcome, drawn from its own stream, so the
    rows do not depend on how the ensemble is chunked.
    """
    return _sample_chains(cfg, 0, cfg.n_trajectories, keep_paths=False)[0]


def analytic_final_distribution(cfg: ObservedRunConfig) -> GaussianState2D:
    """Closed-form distribution of the last outcome.

    Mean M(N theta) z0 follows the undisturbed drift; covariance is the
    accumulated step noise carried through the total rotation.
    """
    theta = cfg.params.theta
    n = cfg.params.n_steps
    c_n = accumulate_covariance(step_covariance(cfg.spec.r, theta), theta, n)
    m_total = rotation_matrix(n * theta)
    return GaussianState2D(
        mean=PhaseVector.from_array(m_total @ cfg.z0.as_array()),
        cov=m_total @ c_n @ m_total.T,
    )


def _survival_terms(
    q0: float, p0: float, r: float, theta: float, n: int
) -> tuple[float, float]:
    """Exponent and normaliser of p_N(z0 | z0) = exp(exponent) / normaliser.

    Raises ValueError when C_1 or C_N is not SPD or its determinant
    overflows, with the messages of ``accumulate_covariance`` ("c1") and
    ``GaussianState2D`` ("cov").
    """
    c00, c01, c11 = _step_entries(r, theta)
    _check_covariance(c00, c01, c01, c11, "c1")
    c00, c01, c11 = _dirichlet_sum(c00, c01, c11, theta, n)
    total = n * theta
    if abs(math.remainder(total, 2.0 * math.pi)) < _RETURN_ANGLE_TOL:
        d0 = d1 = 0.0
    else:
        # the drift mismatch M(-total) z0 - z0
        c, s = math.cos(-total), math.sin(-total)
        d0, d1 = c * q0 + s * p0 - q0, -s * q0 + c * p0 - p0
    _check_covariance(c00, c01, c01, c11, "cov")
    return _gaussian_terms(c00, c01, c01, c11, d0, d1)


def survival_density_continuous(cfg: ObservedRunConfig) -> float:
    """Final-outcome density at the starting point, p_N(z = z0 | z0).

    This is a density per dq dp, not a probability; ratios across N are
    what carry meaning.  At accumulated angles within 1e-9 of a full turn
    the drift offset is treated as exactly zero and the value reduces to
    the peak 1 / (2 pi sqrt(det C_N)) -- for a vacuum seed, 1 / (2 pi N).
    Away from full turns the zero-mean Gaussian of covariance C_N is
    evaluated at the drift mismatch.

    Everything up to the exponential runs on Python floats, through the
    same C_N kernel as ``accumulate_covariance``; the ``zeno-continuous``
    sweep makes the same per-N call and exponentiates its column at once.
    """
    exponent, norm = _survival_terms(
        cfg.z0.q, cfg.z0.p, cfg.spec.r, cfg.params.theta, cfg.params.n_steps
    )
    return float(np.exp(exponent) / norm)
