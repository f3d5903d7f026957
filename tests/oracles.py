"""Reference instruments the tests compare the package against; no experiment
reaches them, so they live here rather than in ``kerrzeno``."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from kerrzeno.phase_space import (
    GaussianState2D, PhaseVector, _as_matrix, _det_2x2, _gaussian_terms, _is_symmetric,
    _require_finite, accumulate_covariance, rotation_matrix, seed_covariance, step_covariance,
)

# Saturating pure states may round det to just below 1/4.
_RS_SLACK = 1e-12
# The kernel-chain check convolves on a square grid of this many points per
# axis, whose half-width is this many times the largest standard deviation
# of the final covariance.
_CHAIN_GRID_POINTS = 256
_CHAIN_GRID_HALF_WIDTH_SIGMAS = 6.0


def density(state: GaussianState2D, points: np.ndarray) -> np.ndarray | float:
    """Probability density of ``state`` at points with trailing axis (q, p)."""
    pts = np.asarray(points, dtype=float)
    d = pts - state.mean.as_array()
    exponent, norm = _gaussian_terms(*state.cov.ravel().tolist(), d[..., 0], d[..., 1])
    out = np.exp(exponent) / norm
    return float(out) if pts.shape == (2,) else out


def classical_evolve(z0: PhaseVector, omega: float, t: float) -> PhaseVector:
    """Drift of the mean-field amplitude, alpha -> alpha exp(-i omega t): M(omega t) z0."""
    omega, t = _require_finite(omega, "omega"), _require_finite(t, "t")
    return PhaseVector.from_array(rotation_matrix(omega * t) @ z0.as_array())


class UncertaintyCheck(NamedTuple):
    ok: bool
    margin: float


def rs_uncertainty_check(c: np.ndarray) -> UncertaintyCheck:
    """Robertson-Schrodinger test det(c) >= 1/4, with _RS_SLACK, and the signed
    margin; ValueError when c is not symmetric or its determinant overflows."""
    entries = _as_matrix(c, "c").ravel().tolist()
    if not _is_symmetric(*entries):
        raise ValueError("c must be symmetric")
    margin = _det_2x2(*entries) - 0.25
    return UncertaintyCheck(ok=margin >= -_RS_SLACK, margin=margin)


def _convolve_same(f: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """FFT linear convolution resampled on the shared centered grid."""
    n, m = f.shape[0], f.shape[0] // 2
    full = np.fft.irfft2(np.fft.rfft2(f, (2 * n, 2 * n)) * np.fft.rfft2(g, (2 * n, 2 * n)))
    return full[m : m + n, m : m + n] * h * h


def chain_convolution_check(cfg, omit_rotation_step: int | None = None) -> float:
    """Peak-normalized largest deviation of the N-step outcome density rebuilt
    by chained quadrature (n_steps <= 3) from the closed-form one.

    The chain runs in co-rotating offsets u = M^-N z - z0, where chained kernel
    j appears rotated by M^j; one step convolves the seed with its rotated
    image.  ``omit_rotation_step = j`` skips kernel j's rotation, a broken-chain
    control that must inflate the defect by orders of magnitude.
    """
    n, theta, r = cfg.params.n_steps, cfg.params.theta, cfg.spec.r
    if n > 3:
        raise ValueError("chain_convolution_check is meant for n_steps <= 3")
    if omit_rotation_step is not None and not 1 <= omit_rotation_step < n:
        raise ValueError("omit_rotation_step must satisfy 1 <= step < n_steps")
    c1 = step_covariance(r, theta)
    c_n = accumulate_covariance(c1, theta, n)
    half_width = _CHAIN_GRID_HALF_WIDTH_SIGMAS * math.sqrt(float(np.max(np.linalg.eigvalsh(c_n))))
    h = 2.0 * half_width / _CHAIN_GRID_POINTS  # index n // 2 holds the origin exactly
    x = (np.arange(_CHAIN_GRID_POINTS) - _CHAIN_GRID_POINTS // 2) * h
    points = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)

    def grid_density(cov: np.ndarray) -> np.ndarray:
        return density(GaussianState2D(PhaseVector(0.0, 0.0), cov), points)

    if n == 1:
        seed, m_inv = seed_covariance(r), rotation_matrix(theta).T
        numeric = _convolve_same(grid_density(m_inv @ seed @ m_inv.T), grid_density(seed), h)
    else:
        numeric = grid_density(c1)
        for j in range(1, n):
            rot = np.eye(2) if omit_rotation_step == j else rotation_matrix(-j * theta)
            numeric = _convolve_same(grid_density(rot @ c1 @ rot.T), numeric, h)
    analytic = grid_density(c_n)
    return float(np.max(np.abs(numeric - analytic)) / np.max(analytic))


def povm_elements(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """E_1 = diag(cos^2 a, 0) and its exact complement, so E_1 + E_2 = I bitwise."""
    e1 = np.diag([math.cos(alpha) ** 2, 0.0])
    return e1, np.eye(2) - e1


def povm_overlap(alpha: float) -> float:
    """tr(E_1 E_2) = sin^2(2 alpha) / 4; zero only for orthogonal elements."""
    return 0.25 * math.sin(2.0 * alpha) ** 2


def reduced_states(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Post-measurement states for outcomes 1 and 2 (rho_1 = |1><1|)."""
    sa = math.sin(alpha) ** 2
    return np.diag([1.0, 0.0]), np.diag([sa, 1.0]) / (1.0 + sa)


def evolution_operator(omega: float, tau: float) -> np.ndarray:
    """U(tau) = exp(-i omega tau sigma_x)."""
    c, s = math.cos(omega * tau), math.sin(omega * tau)
    return np.array([[c, -1j * s], [-1j * s, c]])
