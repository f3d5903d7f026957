"""
Exact 2x2 phase-space algebra for the rotating Kerr model.

Conventions
-----------
A phase-space point is z = (q, p); its complex amplitude is
alpha = (q + i p) / sqrt(2).  The linearized evolution over a step of
duration tau rotates z clockwise by theta = Omega * tau, with
Omega = 2 * chi * n_bar:

    M(theta) = [[ cos(theta), sin(theta)],
                [-sin(theta), cos(theta)]]

Measurement seed states are zero-mean phase-space Gaussians with
covariance

    C(r) = diag(exp(2r), exp(-2r)) / 2

so the q-variance grows with the squeezing parameter r and r = 0 is the
vacuum.  One observed step composes the seed noise with its rotated image,

    C_1(r, theta) = C(r) + M(theta)^-1 C(r) M(theta)^-T,

and N steps accumulate

    C_N = sum_{j=0}^{N-1} M^-j C_1 (M^-j)^T.

The sum is evaluated in closed form, in O(1) for any N: with
C_1 = (tr C_1 / 2) I + B and B traceless, the rotated copies of B sum as
a geometric series, so

    C_N = N (tr C_1 / 2) I + (sin(N eps) / sin(eps)) rot_{(N-1) eps}(B),

where eps = remainder(theta, pi) and rot_phi turns (B11, B12) through
phi.  The reduction modulo pi is exact and leaves the sum unchanged; at
eps == 0 the Dirichlet factor takes its limit N.

All operations are pure functions of floats and (2, 2) float64 arrays and
never mutate their inputs.  M is orthogonal, so its inverse is always
taken as the transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhaseVector",
    "GaussianState2D",
    "EvolutionParams",
    "rotation_matrix",
    "seed_covariance",
    "step_covariance",
    "accumulate_covariance",
    "det_cn_asymptotic",
]

# Leading-principal-minor floor for declaring a 2x2 matrix positive definite.
_MINOR_FLOOR = 1e-14
# Symmetry tolerance (absolute, relative to the largest entry).
_SYMMETRY_RTOL = 1e-9


def _require_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_int(value, name: str, low: int = 1, high: float = math.inf) -> int:
    """int(value), or ValueError naming ``name`` unless value is an integer in
    [low, high); the range test runs first, so inf and nan never reach int()."""
    if not low <= value < high or int(value) != value:
        raise ValueError(f"{name} must be an integer in [{low}, {high}), got {value!r}")
    return int(value)


def _as_matrix(c: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(c, dtype=float)
    if arr.shape != (2, 2):
        raise ValueError(f"{name} must have shape (2, 2), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite entries")
    return arr


def _is_symmetric(c00: float, c01: float, c10: float, c11: float) -> bool:
    scale = max(1.0, abs(c00), abs(c01), abs(c10), abs(c11))
    return abs(c01 - c10) <= _SYMMETRY_RTOL * scale


def _det_2x2(c00: float, c01: float, c10: float, c11: float) -> float:
    """Closed-form determinant on Python floats; ValueError if it overflows."""
    det = c00 * c11 - c01 * c10
    if not math.isfinite(det):
        scale = max(abs(c00), abs(c01), abs(c10), abs(c11))
        raise ValueError(
            f"2x2 determinant overflows double precision (largest entry {scale:.3e})"
        )
    return det


def _check_covariance(c00: float, c01: float, c10: float, c11: float, name: str):
    """Raise ValueError unless the entries form a finite SPD matrix."""
    finite = math.isfinite
    if not (finite(c00) and finite(c01) and finite(c10) and finite(c11)):
        raise ValueError(f"{name} must have finite entries")
    spd = (
        _is_symmetric(c00, c01, c10, c11)
        and c00 > _MINOR_FLOOR
        and _det_2x2(c00, c01, c10, c11) > _MINOR_FLOOR
    )
    if not spd:
        raise ValueError(f"{name} must be symmetric positive-definite")


def _require_covariance(c: np.ndarray, name: str) -> np.ndarray:
    arr = _as_matrix(c, name)
    _check_covariance(*arr.ravel().tolist(), name)
    return arr


def _gaussian_terms(c00, c01, c10, c11, d0, d1):
    """Exponent and normaliser of a 2D Gaussian density at offset (d0, d1).

    The density is exp(exponent) / normaliser; the offsets may be floats or
    arrays, the covariance entries are floats.
    """
    det = _det_2x2(c00, c01, c10, c11)
    quad = (c11 * (d0 * d0) - (c01 + c10) * d0 * d1 + c00 * (d1 * d1)) / det
    return -0.5 * quad, 2.0 * math.pi * math.sqrt(det)


@dataclass(frozen=True)
class PhaseVector:
    """Point z = (q, p) in phase space; alpha = (q + i p)/sqrt(2)."""

    q: float
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _require_finite(self.q, "q"))
        object.__setattr__(self, "p", _require_finite(self.p, "p"))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> PhaseVector:
        return cls(float(arr[0]), float(arr[1]))

    @classmethod
    def from_alpha(cls, alpha: complex) -> PhaseVector:
        return cls(math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag)

    def as_array(self) -> np.ndarray:
        return np.array([self.q, self.p], dtype=float)

    def to_alpha(self) -> complex:
        return complex(self.q, self.p) / math.sqrt(2.0)

    def modulus(self) -> float:
        return math.hypot(self.q, self.p)


@dataclass(frozen=True)
class GaussianState2D:
    """Normalized phase-space Gaussian: mean point plus SPD covariance."""

    mean: PhaseVector
    cov: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "cov", _require_covariance(self.cov, "cov"))


@dataclass(frozen=True)
class EvolutionParams:
    """Kerr-evolution step parameters; omega = 2 * chi * n_bar."""

    chi: float
    n_bar: float
    tau: float
    n_steps: int

    def __post_init__(self) -> None:
        _require_finite(self.chi, "chi")
        _require_finite(self.n_bar, "n_bar")
        _require_finite(self.tau, "tau")
        if self.n_bar < 0:
            raise ValueError(f"n_bar must be >= 0, got {self.n_bar}")
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        object.__setattr__(self, "n_steps", _require_int(self.n_steps, "n_steps"))

    @property
    def omega(self) -> float:
        return 2.0 * self.chi * self.n_bar

    @property
    def theta(self) -> float:
        """Rotation angle per step, omega * tau."""
        return self.omega * self.tau

    @property
    def total_time(self) -> float:
        return self.n_steps * self.tau


def rotation_matrix(theta: float) -> np.ndarray:
    """Clockwise phase-space rotation [[c, s], [-s, c]] by angle theta."""
    theta = _require_finite(theta, "theta")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def seed_covariance(r: float) -> np.ndarray:
    """Covariance diag(e^2r, e^-2r)/2 of the measurement seed; det = 1/4."""
    r = _require_finite(r, "r")
    return 0.5 * np.diag([math.exp(2.0 * r), math.exp(-2.0 * r)])


def _step_entries(r: float, theta: float) -> tuple[float, float, float]:
    """Entries (C11, C12, C22) of the step covariance; see step_covariance."""
    r = _require_finite(r, "r")
    theta = _require_finite(theta, "theta")
    if math.isinf(2.0 * theta):
        raise ValueError(f"theta must satisfy |theta| <= max_float / 2, got {theta!r}")
    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    c2 = math.cos(theta) ** 2
    return ch + c2 * sh, 0.5 * math.sin(2.0 * theta) * sh, ch - c2 * sh


def step_covariance(r: float, theta: float) -> np.ndarray:
    """Covariance C_1 of one observed step.

    Entries are evaluated literally:

        [[cosh(2r) + cos^2(theta) sinh(2r),  sin(2 theta) sinh(2r) / 2],
         [sin(2 theta) sinh(2r) / 2,         cosh(2r) - cos^2(theta) sinh(2r)]]

    which coincides with seed + rotated-seed composition
    C + M^-1 C M^-T (an identity the test-suite re-derives numerically).
    """
    c00, c01, c11 = _step_entries(r, theta)
    return np.array([[c00, c01], [c01, c11]])


def _dirichlet_sum(
    c00: float, c01: float, c11: float, theta: float, n: int
) -> tuple[float, float, float]:
    """Entries (C11, C12, C22) of C_N from those of C_1, on Python floats.

    The one evaluation of the closed form; see accumulate_covariance.
    """
    if n == 1:
        return c00, c01, c11
    eps = math.remainder(theta, math.pi)
    dirichlet = n if eps == 0.0 else math.sin(n * eps) / math.sin(eps)
    turn = (n - 1) * eps
    b = dirichlet * complex(0.5 * (c00 - c11), c01)
    b *= complex(math.cos(turn), math.sin(turn))
    a = 0.5 * (c00 + c11)
    return n * a + b.real, b.imag, n * a - b.real


def accumulate_covariance(c1: np.ndarray, theta: float, n: int) -> np.ndarray:
    """Covariance after n steps: sum_{j=0}^{n-1} M^-j C_1 (M^-j)^T, in closed form.

    Split C_1 = a I + B with a = tr C_1 / 2 and B traceless, written as
    b = (C11 - C22)/2 + i C12.  Conjugating B by M^-j turns b through
    2 j theta, so the sum over j is a geometric series:

        C_N = N a I + D_N rot_{(N-1) eps}(B),   D_N = sin(N eps) / sin(eps),

    where rot_phi turns b through phi and eps = remainder(theta, pi).
    Reducing modulo pi first is exact and cancels the (-1)^k signs of
    theta = k pi + eps; as sin(eps) -> 0 the factor tends to N, which is
    taken at eps == 0.  One step returns the entries of C_1 unchanged.

    The formula is evaluated on Python floats by the same kernel that the
    N-sweeps of the experiments call once per N, so a sweep and this
    function agree bit for bit.
    """
    c00, c01, _, c11 = _require_covariance(c1, "c1").ravel().tolist()
    theta = _require_finite(theta, "theta")
    c00, c01, c11 = _dirichlet_sum(c00, c01, c11, theta, _require_int(n, "n"))
    return np.array([[c00, c01], [c01, c11]])


def det_cn_asymptotic(r: float, n: int) -> float:
    """Leading large-n value of sqrt(det C_N): n * cosh(2r).

    Valid when the per-step angle is small while the accumulated angle is
    large (many steps); the exact accumulated sum is the reference it is
    compared against.
    """
    r = _require_finite(r, "r")
    return float(_require_int(n, "n")) * math.cosh(2.0 * r)
