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
final distribution and that survival density, which, like the covariance
kernels of ``phase_space``, takes a float or arrays of angles and step
counts: the ``zeno-continuous`` sweep evaluates it over passes of N.

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
ensemble with its first paths in one pass, or one trajectory.  It runs
chunks of whole streams, so its working arrays stay bounded.  Chains of at
most 58 steps evaluate Philox4x64-10, a pure function of (key, counter), in
numpy across the streams of 2**14 Philox blocks.  Longer chains run chunks
of at most 4096 streams in slices of at most 1024 steps and 2**20
trajectory-steps, and draw from one ``np.random.Philox`` per call, re-keyed
per stream and slice through its public ``state``, 16 streams at a time,
each block of rows copied while in cache into a contiguous step-major
buffer.  One in-place kernel turns the chunk's or the buffer's uniforms
into coloured noise, so both ways give the same bits.  The chain loop
writes each step's point over that step's noise, so a slice holds one
noise-sized array.
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
    _remainder,
    _require_int,
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

# Ensembles of chains up to this many steps evaluate Philox in numpy; above
# it the re-keyed C generator (a few us a stream to re-key) is faster.  Whole
# 10k-trajectory ensembles, 20 interleaved pairs on one core of a 2-core Xeon
# (r = 0.5 and 0): the vector path wins 20 at 58 steps and 17 at 60.
_VECTOR_MAX_STEPS = 58

# Philox4x64-10 round multipliers and Weyl key increments (Salmon et al.,
# "Parallel random numbers: as easy as 1, 2, 3", SC'11), as in numpy.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)

# Re-keyed ensembles run chunks of at most _CHUNK_ROWS streams, drawn in
# slices of at most _SLICE_STEPS steps and _CHUNK_ELEMENTS trajectory-steps, so
# a slice's noise stays within 16 MB however long the chain and a draw block's
# rows of it within 256 KB; as _SLICE_STEPS is even, every slice starts on a
# Philox pair.  A vector chunk holds the streams of _VECTOR_BLOCKS Philox
# blocks, so its words stay in cache.
_CHUNK_ROWS = 4096
_CHUNK_ELEMENTS = 2**20
_SLICE_STEPS = 1024
_VECTOR_BLOCKS = 2**14

# Long chains draw in blocks of this many streams.  A block's rows of one slice
# are drawn and made noise while in cache.  Time of a 10k x 1000-step ensemble
# against whole-piece stages, medians of 15 interleaved pairs on one pinned
# core with numpy 2.4.6: 8 streams 0.82, 16 0.79, 32 0.81, 64 0.78, all within
# the pairs' spread; 16 keeps the rows of 1000-step streams at 256 KB.
_DRAW_BLOCK = 16

# Total accumulated angles closer than this to a multiple of 2 pi are
# treated as exact returns when evaluating the survival density.
_RETURN_ANGLE_TOL = 1e-9


def symmetric_sqrt_2x2(c: np.ndarray) -> np.ndarray:
    """Symmetric square root of an SPD 2x2 matrix, (C + sqrt(det) I)/t.

    Raises ValueError, naming the matrix "c1", unless it is finite SPD with
    a determinant that does not overflow.
    """
    _check_covariance(c, "c1")
    s = math.sqrt(float(np.linalg.det(c)))  # the chains' bits keep LAPACK's rounding
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


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of m * x, in 15 array passes.

    With x = xh 2**32 + xl and m = mh 2**32 + ml, the high word is
    mh xh + (t >> 32) + (w >> 32), where t = mh xl + (ml xl >> 32) and
    w = ml xh + (t & LO32); each of these sums stays below 2**64.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, hi = x & _LO32, x >> _SHIFT32
    t = m_lo * x_lo
    t >>= _SHIFT32
    x_lo *= m_hi
    t += x_lo
    w = np.bitwise_and(t, _LO32, out=x_lo)
    w += m_lo * hi
    t >>= _SHIFT32
    w >>= _SHIFT32
    hi *= m_hi
    hi += t
    hi += w
    return np.uint64(m) * x, hi


def _philox_uniforms(
    master_seed: int, indices: np.ndarray, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniforms 2j and 2j + 1 of every stream (master_seed, i), i in indices.

    Returns two (n_steps, len(indices)) arrays whose columns equal
    ``Generator(Philox(key=(master_seed, i))).random((n_steps, 2))[:, 0]``
    and ``[:, 1]`` bit for bit.  numpy's Philox increments its 4-word
    counter before each block, so block b = 0, 1, ... is the counter
    (b + 1, 0, 0, 0) and yields words 4b ... 4b + 3; a double is
    (word >> 11) * 2**-53.

    Each of the ten rounds maps the counter (c0, c1, c2, c3) under the key
    (k0, k1) = (master_seed + r W0, i + r W1) to
    (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)).
    The first two rounds need no (blocks, streams) array for most words:
    round 0 multiplies only the per-block column (b + 1) and leaves
    c0 = master_seed and c1 = 0 in every stream, so round 1's M0 product
    is one Python-int product and only its M1 product on c2 runs over
    the streams.  Scalar sums and products are taken in Python ints and
    only arrays wrap mod 2**64: numpy raises FloatingPointError when a
    0-d uint64 wraps under ``np.errstate(over="raise")``, which the
    experiments set.
    """
    n_blocks = (n_steps + 1) // 2
    index_key = np.asarray(indices, dtype=np.uint64)
    # round 0 on counters (b + 1, 0, 0, 0): c0 = master_seed, c1 = 0
    c3, hi0 = _mulhilo(_PHILOX_M0, np.arange(1, n_blocks + 1, dtype=np.uint64)[:, None])
    c2 = hi0 ^ index_key
    # round 1: M0 c0 is a Python int; c1 = 0 drops out of the new c0
    product = _PHILOX_M0 * master_seed
    lo1, hi1 = _mulhilo(_PHILOX_M1, c2)
    hi1 ^= np.uint64((master_seed + _PHILOX_W0) % 2**64)
    c2 = (c3 ^ np.uint64(product >> 64)) ^ (index_key + np.uint64(_PHILOX_W1))
    c0, c1, c3 = hi1, lo1, np.uint64(product % 2**64)
    for r in range(2, 10):
        lo0, hi0 = _mulhilo(_PHILOX_M0, c0)
        lo1, hi1 = _mulhilo(_PHILOX_M1, c2)
        hi1 ^= c1
        hi1 ^= np.uint64((master_seed + r * _PHILOX_W0) % 2**64)
        hi0 ^= c3
        hi0 ^= index_key + np.uint64(r * _PHILOX_W1 % 2**64)
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    # step 2b reads words 0, 1 of block b and step 2b + 1 words 2, 3
    u0, u1 = np.empty((2, n_blocks, 2, len(index_key)))
    for u, first, second in ((u0, c0, c2), (u1, c1, c3)):
        first >>= _SHIFT11
        second >>= _SHIFT11
        np.multiply(first, 2.0**-53, out=u[:, 0])
        np.multiply(second, 2.0**-53, out=u[:, 1])
    return u0.reshape(2 * n_blocks, -1)[:n_steps], u1.reshape(2 * n_blocks, -1)[:n_steps]


def _coloured_noise(u0, u1, sqrt_cov: np.ndarray, out_q, out_p) -> None:
    """Coloured noise of the uniform pairs (u0, u1), written stage by stage
    in place over u0 and u1 and into out_q and out_p.  Each element keeps one
    tree, sqrt(-2 log1p(-u0)) times cos and sin of (2 pi) u1, then s00 n0 +
    s01 n1 and s10 n0 + s11 n1, so it rounds alike in any chunk or draw."""
    np.log1p(np.negative(u0, out=u0), out=u0)
    radius = np.sqrt(np.multiply(u0, -2.0, out=u0), out=u0)
    angle = np.multiply(u1, 2.0 * math.pi, out=u1)
    n0 = np.multiply(np.cos(angle, out=out_q), radius, out=out_q)
    n1 = np.multiply(np.sin(angle, out=angle), radius, out=angle)
    # p first, while both normals are whole; the radius is spent
    np.multiply(n0, sqrt_cov[1, 0], out=out_p)
    out_p += np.multiply(n1, sqrt_cov[1, 1], out=radius)
    n0 *= sqrt_cov[0, 0]
    n0 += np.multiply(n1, sqrt_cov[0, 1], out=n1)


def _chain_points(z, rotation: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Iterate z -> M (z + xi_j) over the step axis of xi, (steps, 2, n),
    from an array-like z of shape (2, 1) or (2, n), writing step j's point
    over xi_j; returns xi.

    Each step keeps the expression tree m00 sq + m01 sp, m10 sq + m11 sp of
    (sq, sp) = z + xi_j: M's columns scaled by sq and by sp go into one
    preallocated scratch and are summed, four ufunc calls a step.
    """
    left, right = rotation[:, :1], rotation[:, 1:]
    scaled_q, scaled_p = np.empty((2,) + xi.shape[1:])
    for point, sq, sp in zip(xi, xi[:, 0], xi[:, 1]):
        np.add(point, z, out=point)
        np.multiply(left, sq, out=scaled_q)
        np.multiply(right, sp, out=scaled_p)
        np.add(scaled_q, scaled_p, out=point)
        z = point
    return xi


def _stream_noise(
    generator, state: dict, indices: np.ndarray, first: int, span: int, sqrt_cov: np.ndarray
) -> np.ndarray:
    """Coloured noise of steps first .. first + span - 1 of each stream, as
    (span, 2, n).

    Per stream the generator takes ``state`` keyed (master_seed, i) at counter
    first // 2, so ``first`` must be even.  Rows are drawn _DRAW_BLOCK streams
    at a time, made noise in a contiguous buffer, by numpy's contiguous loops
    as on a whole chunk, and written into their columns while in cache.
    """
    state["state"]["counter"][0] = first // 2
    xi = np.empty((span, 2, len(indices)))
    rows = np.empty((min(_DRAW_BLOCK, len(indices)), span, 2))
    buffer = np.empty(2 * rows.size)  # a block's uniform pair, then its noise
    for lo in range(0, len(indices), _DRAW_BLOCK):
        block = rows[: len(indices) - lo]
        for index, row in zip(indices[lo : lo + _DRAW_BLOCK].tolist(), block):
            state["state"]["key"][1] = index
            generator.bit_generator.state = state
            generator.random(out=row)
        u, noise = buffer[: 2 * block.size].reshape((2, 2, span, len(block)))
        u[...] = block.transpose(2, 1, 0)
        _coloured_noise(u[0], u[1], sqrt_cov, noise[0], noise[1])
        xi[:, :, lo : lo + len(block)] = noise.transpose(1, 0, 2)
    return xi


def _chunk_layout(n: int) -> tuple[int, int]:
    """Trajectories per chunk and steps per slice for chains of n steps."""
    if n <= _VECTOR_MAX_STEPS:
        return _VECTOR_BLOCKS // ((n + 1) // 2), n
    span = min(n, _SLICE_STEPS)
    return min(_CHUNK_ROWS, _CHUNK_ELEMENTS // span), span


def _sample_chains(
    cfg: ObservedRunConfig, lo: int, hi: int, paths: np.ndarray | None = None
) -> np.ndarray:
    """Finals (hi - lo, 2) of trajectories lo..hi-1; trajectory i lands at row
    i - lo, and with ``paths``, of shape (k, n_steps, 2) for some k <= hi - lo,
    its path at row i - lo of ``paths`` while i - lo < k.

    The one chain sampler, behind ``run_ensemble`` (0..n_trajectories-1) and
    ``run_trajectory`` (one index).
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
    for start in range(lo, hi, chunk):
        indices = np.arange(start, min(start + chunk, hi), dtype=np.uint64)
        rows = slice(start - lo, start - lo + len(indices))
        z = ((cfg.z0.q,), (cfg.z0.p,))  # z0 as a (2, 1) column
        for first in range(0, n, span):
            if n <= _VECTOR_MAX_STEPS:
                u0, u1 = _philox_uniforms(cfg.master_seed, indices, n)
                xi = np.empty((n, 2, len(indices)))
                _coloured_noise(u0, u1, sqrt_cov, xi[:, 0], xi[:, 1])
                del u0, u1
            else:
                count = min(span, n - first)
                xi = _stream_noise(generator, state, indices, first, count, sqrt_cov)
            _chain_points(z, rotation, xi)
            if paths is not None:
                recorded = paths[rows, first : first + len(xi)]
                recorded[...] = xi.transpose(2, 0, 1)[: len(recorded)]
            z = xi[-1].copy()
            # free this slice before the next one is drawn
            del xi
        finals[rows] = z.T
    return finals


def run_trajectory(cfg: ObservedRunConfig, trajectory_index: int) -> np.ndarray:
    """The (n_steps, 2) outcome path of one trajectory; row j - 1 is step j.

    Bit for bit the path that trajectory has in any ensemble of ``cfg``.
    Raises ValueError unless ``trajectory_index`` is an integer in
    ``[0, SEED_LIMIT)``.
    """
    index = _require_int(trajectory_index, "trajectory_index", 0, SEED_LIMIT)
    path = np.empty((1, cfg.params.n_steps, 2))
    _sample_chains(cfg, index, index + 1, path)
    return path[0]


def run_ensemble(cfg: ObservedRunConfig, paths: np.ndarray | None = None) -> np.ndarray:
    """Final outcomes of all trajectories, shape (n_trajectories, 2).

    Row i is trajectory i's last outcome, drawn from its own stream, so the
    rows do not depend on how the ensemble is chunked.  A caller-owned
    float64 ``paths`` of shape (k, n_steps, 2), k <= n_trajectories, gets
    the paths of trajectories 0..k-1 from the same pass; others raise ValueError.
    """
    n = cfg.params.n_steps
    if paths is not None and not (
        isinstance(paths, np.ndarray)
        and paths.dtype == np.float64
        and paths.ndim == 3
        and paths.shape[1:] == (n, 2)
        and len(paths) <= cfg.n_trajectories
    ):
        raise ValueError(
            f"paths must be a float64 array of shape (k, {n}, 2) with k <= "
            f"n_trajectories={cfg.n_trajectories}, got {type(paths).__name__} of dtype "
            f"{getattr(paths, 'dtype', None)} and shape {np.shape(paths)}"
        )
    return _sample_chains(cfg, 0, cfg.n_trajectories, paths)


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


def survival_density_continuous(z0: PhaseVector, r: float, theta, n) -> float | np.ndarray:
    """Final-outcome density at the starting point, p_N(z = z0 | z0), after
    ``n`` steps of angle ``theta`` from ``z0`` with seed squeezing ``r``.

    This is a density per dq dp, not a probability; ratios across N are
    what carry meaning.  At accumulated angles within 1e-9 of a full turn
    the drift offset is treated as exactly zero and the value reduces to
    the peak 1 / (2 pi sqrt(det C_N)) -- for a vacuum seed, 1 / (2 pi N).
    Away from full turns the zero-mean Gaussian of covariance C_N is
    evaluated at the drift mismatch.

    A float ``theta`` and ``n`` give a float; arrays of them broadcast and
    give an array, each element with the bits it gets alone, as the
    ``zeno-continuous`` sweep evaluates its passes of N.  C_1 and C_N come
    from ``step_covariance`` and ``accumulate_covariance``, whose refusals
    name the first N whose C_1 or C_N is not SPD or overflows.
    """
    theta, n = np.broadcast_arrays(np.asarray(theta, dtype=float), n)
    cn = accumulate_covariance(step_covariance(r, theta), theta, n)
    c00, c01, c10, c11 = cn[..., 0, 0], cn[..., 0, 1], cn[..., 1, 0], cn[..., 1, 1]
    total = n * theta
    home = np.abs(_remainder(total, 2.0 * math.pi)) < _RETURN_ANGLE_TOL
    # the drift mismatch M(-total) z0 - z0, zero back home
    c, s = np.cos(-total), np.sin(-total)
    d0 = np.where(home, 0.0, c * z0.q + s * z0.p - z0.q)
    d1 = np.where(home, 0.0, -s * z0.q + c * z0.p - z0.p)
    det = c00 * c11 - c01 * c10
    quad = (c11 * (d0 * d0) - (c01 + c10) * d0 * d1 + c00 * (d1 * d1)) / det
    return np.exp(-0.5 * quad) / (2.0 * math.pi * np.sqrt(det))
