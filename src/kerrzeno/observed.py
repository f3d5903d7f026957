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
final distribution, that survival density, and a quadrature instrument
that rebuilds the chained kernels numerically.

Randomness
----------
Trajectory ``i`` of a run keyed by ``master_seed`` owns the Philox
counter stream keyed ``(master_seed, i)``, with ``0 <= master_seed < 2**63``
(numpy reads larger tuple keys through float64, so distinct seeds there
would share streams); step ``j`` consumes uniforms
``2j`` and ``2j + 1`` of that stream, turned into normals by Box-Muller.
Results are therefore bit-identical however trajectories are chunked.

Ensembles of chains of at most 64 steps evaluate Philox4x64-10, a pure
function of (key, counter), in numpy across a whole chunk of trajectories;
longer chains, and ``run_trajectory``, draw from one ``np.random.Philox``
generator per trajectory.  Both give the same bits.
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
    accumulate_covariance,
    is_covariance,
    rotation_matrix,
    seed_covariance,
    step_covariance,
)

__all__ = [
    "UnsupportedSeedError",
    "GaussianKernel",
    "ObservedRunConfig",
    "TrajectoryRecord",
    "ConvolutionGrid",
    "symmetric_sqrt_2x2",
    "gaussian_step_kernel",
    "sample_step",
    "run_trajectory",
    "run_ensemble",
    "analytic_final_distribution",
    "survival_density_continuous",
    "chain_convolution_check",
    "SEED_LIMIT",
]

# Exclusive upper bound of master_seed: below it every (seed, index) tuple
# key reaches Philox exactly.
SEED_LIMIT = 2**63

# Ensembles of chains up to this many steps evaluate Philox in numpy across
# the chunk; above it one C generator per trajectory is faster (measured
# crossover between 64 and 128 steps at 8192 trajectories).
_VECTOR_MAX_STEPS = 64

# Philox4x64-10 round multipliers and Weyl key increments (Salmon et al.,
# "Parallel random numbers: as easy as 1, 2, 3", SC'11), as in numpy.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Total accumulated angles closer than this to a multiple of 2 pi are
# treated as exact returns when evaluating the survival density.
_RETURN_ANGLE_TOL = 1e-9


class UnsupportedSeedError(ValueError):
    """Raised when an operation needs a Gaussian (vacuum/squeezed) seed."""


def symmetric_sqrt_2x2(c: np.ndarray) -> np.ndarray:
    """Symmetric square root of an SPD 2x2 matrix, (C + sqrt(det) I)/t."""
    s = math.sqrt(float(np.linalg.det(c)))
    t = math.sqrt(float(c[0, 0] + c[1, 1]) + 2.0 * s)
    return (c + s * np.eye(2)) / t


@dataclass(frozen=True)
class GaussianKernel:
    """One observed step: rotation M plus zero-mean noise covariance C_1.

    The derived attribute ``sqrt_cov`` holds the symmetric square root
    used to color standard-normal draws.
    """

    rotation: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        if not is_covariance(self.cov):
            raise ValueError("kernel covariance must be symmetric positive-definite")
        object.__setattr__(self, "sqrt_cov", symmetric_sqrt_2x2(self.cov))


def gaussian_step_kernel(spec: MeasurementSpec, theta: float) -> GaussianKernel:
    """Closed-form step kernel for a Gaussian measurement seed."""
    if not spec.is_gaussian:
        raise UnsupportedSeedError(
            "closed-form step kernels exist only for vacuum or squeezed seeds"
        )
    return GaussianKernel(
        rotation=rotation_matrix(theta), cov=step_covariance(spec.seed_r, theta)
    )


def sample_step(z: PhaseVector, kernel: GaussianKernel, rng) -> PhaseVector:
    """Draw the next outcome z' = M (z + xi), xi ~ N(0, C_1).

    ``rng`` only needs a ``standard_normal(size)`` method, so tests may
    substitute a stub (e.g. one returning zeros to expose the pure drift).
    """
    xi = kernel.sqrt_cov @ np.asarray(rng.standard_normal(2), dtype=float)
    return PhaseVector.from_array(kernel.rotation @ (z.as_array() + xi))


@dataclass(frozen=True)
class ObservedRunConfig:
    """Inputs of one observed run (initial point, step params, seed state)."""

    z0: PhaseVector
    params: EvolutionParams
    spec: MeasurementSpec
    n_trajectories: int = 1
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        if int(self.master_seed) != self.master_seed:
            raise ValueError("master_seed must be an integer")
        if not 0 <= self.master_seed < SEED_LIMIT:
            raise ValueError(f"master_seed must be in [0, 2**63), got {self.master_seed}")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Outcomes (j, t_j, z_j) of one realization plus its stream identity."""

    steps: np.ndarray
    times: np.ndarray
    points: np.ndarray
    master_seed: int
    trajectory_index: int

    @property
    def final(self) -> PhaseVector:
        return PhaseVector.from_array(self.points[-1])

    @property
    def outcomes(self) -> list[tuple[int, float, PhaseVector]]:
        return [
            (int(j), float(t), PhaseVector.from_array(zp))
            for j, t, zp in zip(self.steps, self.times, self.points)
        ]


def _box_muller(u0: np.ndarray, u1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two standard normals per uniform pair; the one expression tree shared
    by the per-trajectory and the vectorized streams."""
    radius = np.sqrt(-2.0 * np.log1p(-u0))
    angle = 2.0 * math.pi * u1
    return radius * np.cos(angle), radius * np.sin(angle)


def _trajectory_normals(master_seed: int, trajectory_index: int, n_steps: int) -> np.ndarray:
    """(n_steps, 2) standard normals from the (seed, index) Philox stream.

    Box-Muller over counter-ordered uniforms keeps the draw count per step
    fixed at two, so step j is a pure function of (seed, index, j).
    """
    key = (int(master_seed), int(trajectory_index))
    gen = np.random.Generator(np.random.Philox(key=key))
    u = gen.random((n_steps, 2))
    return np.stack(_box_muller(u[:, 0], u[:, 1]), axis=1)


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
    """Componentwise coloring; one fixed expression tree per element so
    batched and single-trajectory paths round identically."""
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


def run_trajectory(cfg: ObservedRunConfig, trajectory_index: int) -> TrajectoryRecord:
    """One realization of the observed chain, reproducible from its keys."""
    if not 0 <= trajectory_index:
        raise ValueError("trajectory_index must be >= 0")
    kernel = gaussian_step_kernel(cfg.spec, cfg.params.theta)
    n = cfg.params.n_steps
    normals = _trajectory_normals(cfg.master_seed, trajectory_index, n)
    xi_q, xi_p = _color_noise(normals[:, 0], normals[:, 1], kernel.sqrt_cov)
    out_q, out_p = _chain_points(cfg.z0.q, cfg.z0.p, kernel.rotation, xi_q, xi_p)
    steps = np.arange(1, n + 1)
    return TrajectoryRecord(
        steps=steps,
        times=steps * cfg.params.tau,
        points=np.stack([out_q, out_p], axis=1),
        master_seed=cfg.master_seed,
        trajectory_index=trajectory_index,
    )


def _ensemble_block(
    cfg: ObservedRunConfig,
    kernel: GaussianKernel,
    indices: np.ndarray,
    finals: np.ndarray,
    paths: np.ndarray | None,
) -> None:
    n = cfg.params.n_steps
    if n <= _VECTOR_MAX_STEPS:
        n0, n1 = _box_muller(*_philox_uniforms(cfg.master_seed, indices, n))
    else:
        normals = np.empty((n, len(indices), 2))
        for row, ti in enumerate(indices):
            normals[:, row, :] = _trajectory_normals(cfg.master_seed, int(ti), n)
        n0, n1 = normals[..., 0], normals[..., 1]
    xi_q, xi_p = _color_noise(n0, n1, kernel.sqrt_cov)
    out_q, out_p = _chain_points(cfg.z0.q, cfg.z0.p, kernel.rotation, xi_q, xi_p)
    lo, hi = indices[0], indices[-1] + 1
    if paths is not None:
        paths[lo:hi, :, 0] = out_q.T
        paths[lo:hi, :, 1] = out_p.T
    finals[lo:hi, 0] = out_q[-1]
    finals[lo:hi, 1] = out_p[-1]


def run_ensemble(
    cfg: ObservedRunConfig, keep_paths: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Final outcomes of all trajectories, shape (n_trajectories, 2).

    With ``keep_paths`` the full (n_trajectories, n_steps, 2) history is
    returned as well.  Trajectories run in chunks of 4096; each draws from
    its own stream and lands at its own index, so chunking changes no value.
    For chains of at most 64 steps a chunk's streams are evaluated together
    by a numpy Philox4x64-10; longer chains build one generator per
    trajectory.  Both give the same bits.
    """
    kernel = gaussian_step_kernel(cfg.spec, cfg.params.theta)
    n_traj = cfg.n_trajectories
    finals = np.empty((n_traj, 2))
    paths = np.empty((n_traj, cfg.params.n_steps, 2)) if keep_paths else None
    for lo in range(0, n_traj, 4096):
        chunk = np.arange(lo, min(lo + 4096, n_traj))
        _ensemble_block(cfg, kernel, chunk, finals, paths)
    return (finals, paths) if keep_paths else finals


def analytic_final_distribution(cfg: ObservedRunConfig) -> GaussianState2D:
    """Closed-form distribution of the last outcome.

    Mean M(N theta) z0 follows the undisturbed drift; covariance is the
    accumulated step noise carried through the total rotation.
    """
    if not cfg.spec.is_gaussian:
        raise UnsupportedSeedError(
            "closed-form final distributions exist only for Gaussian seeds"
        )
    theta = cfg.params.theta
    n = cfg.params.n_steps
    c_n = accumulate_covariance(step_covariance(cfg.spec.seed_r, theta), theta, n)
    m_total = rotation_matrix(n * theta)
    return GaussianState2D(
        mean=PhaseVector.from_array(m_total @ cfg.z0.as_array()),
        cov=m_total @ c_n @ m_total.T,
    )


def survival_density_continuous(cfg: ObservedRunConfig) -> float:
    """Final-outcome density at the starting point, p_N(z = z0 | z0).

    This is a density per dq dp, not a probability; ratios across N are
    what carry meaning.  At accumulated angles within 1e-9 of a full turn
    the drift offset is treated as exactly zero and the value reduces to
    the peak 1 / (2 pi sqrt(det C_N)) -- for a vacuum seed, 1 / (2 pi N).
    Away from full turns the Gaussian is evaluated at the drift mismatch.
    """
    if not cfg.spec.is_gaussian:
        raise UnsupportedSeedError("survival density needs a Gaussian seed")
    theta = cfg.params.theta
    n = cfg.params.n_steps
    c_n = accumulate_covariance(step_covariance(cfg.spec.seed_r, theta), theta, n)
    total = n * theta
    distance = abs(math.remainder(total, 2.0 * math.pi))
    if distance < _RETURN_ANGLE_TOL:
        offset = np.zeros(2)
    else:
        offset = rotation_matrix(-total) @ cfg.z0.as_array() - cfg.z0.as_array()
    inv = np.linalg.inv(c_n)
    quad = float(offset @ inv @ offset)
    return math.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(float(np.linalg.det(c_n))))


@dataclass(frozen=True)
class ConvolutionGrid:
    """Square grid for the numerical kernel chain.

    The half-width is ``half_width_sigmas`` times the largest standard
    deviation of the final covariance, centered on the drifted mean.
    """

    n_points: int = 256
    half_width_sigmas: float = 6.0

    def __post_init__(self) -> None:
        if self.n_points < 16:
            raise ValueError("n_points must be >= 16")
        if self.half_width_sigmas <= 0:
            raise ValueError("half_width_sigmas must be > 0")


def _centered_axis(n: int, half_width: float) -> tuple[np.ndarray, float]:
    """n grid points with exact origin membership at index n // 2."""
    h = 2.0 * half_width / n
    return (np.arange(n) - n // 2) * h, h


def _convolve_same(f: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """FFT linear convolution resampled on the shared centered grid."""
    n = f.shape[0]
    m = n // 2
    shape = (2 * n, 2 * n)
    full = np.fft.irfft2(np.fft.rfft2(f, shape) * np.fft.rfft2(g, shape), shape)
    return full[m : m + n, m : m + n] * h * h


def chain_convolution_check(
    cfg: ObservedRunConfig,
    grid: ConvolutionGrid | None = None,
    omit_rotation_step: int | None = None,
) -> float:
    """Rebuild the N-step outcome density by chained quadrature.

    A validation instrument for small chains (n_steps <= 3): the step
    kernels are convolved numerically on a grid and the maximum deviation
    from the closed-form final density, normalized by its peak, is
    returned.  The chain is evaluated in co-rotating offset coordinates
    u = M^-N z - z0, a unit-Jacobian relabeling of outcomes under which
    each chained kernel j appears rotated by M^j; the defect is unchanged.

    For a single step the seed noise itself is convolved with its rotated
    image, probing the step covariance from one level deeper.

    ``omit_rotation_step = j`` deliberately skips the rotation of chained
    kernel j (1 <= j < n_steps), a broken-chain control that must inflate
    the defect by orders of magnitude.
    """
    if not cfg.spec.is_gaussian:
        raise UnsupportedSeedError("the convolution check needs a Gaussian seed")
    n = cfg.params.n_steps
    if n > 3:
        raise ValueError("chain_convolution_check is meant for n_steps <= 3")
    if omit_rotation_step is not None and not 1 <= omit_rotation_step < n:
        raise ValueError("omit_rotation_step must satisfy 1 <= step < n_steps")
    grid = grid or ConvolutionGrid()
    theta = cfg.params.theta
    r = cfg.spec.seed_r
    c1 = step_covariance(r, theta)
    c_n = accumulate_covariance(c1, theta, n)
    half_width = grid.half_width_sigmas * math.sqrt(
        float(np.max(np.linalg.eigvalsh(c_n)))
    )
    x, h = _centered_axis(grid.n_points, half_width)
    points = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
    origin = PhaseVector(0.0, 0.0)

    def grid_density(cov: np.ndarray) -> np.ndarray:
        return GaussianState2D(origin, cov).density(points)

    if n == 1:
        seed = seed_covariance(r)
        m_inv = rotation_matrix(theta).T
        numeric = _convolve_same(
            grid_density(m_inv @ seed @ m_inv.T), grid_density(seed), h
        )
    else:
        numeric = grid_density(c1)
        for j in range(1, n):
            rot = np.eye(2) if omit_rotation_step == j else rotation_matrix(-j * theta)
            numeric = _convolve_same(grid_density(rot @ c1 @ rot.T), numeric, h)
    analytic = grid_density(c_n)
    return float(np.max(np.abs(numeric - analytic)) / np.max(analytic))
