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
taken as the transpose.  ``step_covariance`` and ``accumulate_covariance``
also run elementwise over arrays of angles and step counts and over
(..., 2, 2) stacks of matrices, for the N-sweeps of the experiments, and
give every element the bits it gets alone.
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


def _first_refused(c: np.ndarray, name: str) -> tuple[int, ValueError] | None:
    """The flat index of the first matrix of the (..., 2, 2) stack ``c`` that is
    not finite symmetric positive-definite, and the ValueError refusing it by
    precedence: non-finite entries, asymmetry or c00 <= _MINOR_FLOOR, an
    overflowing determinant c00 c11 - c01 c10, named by the largest entry,
    det <= _MINOR_FLOOR."""
    flat = np.reshape(c, (-1, 4))
    c00, c01, c10, c11 = flat.T
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(np.maximum(abs(c00), abs(c01)), np.maximum(abs(c10), abs(c11)))
        shaped = (abs(c01 - c10) <= _SYMMETRY_RTOL * np.maximum(scale, 1.0)) & (c00 > _MINOR_FLOOR)
        det = c00 * c11 - c01 * c10
    # a non-finite entry leaves the determinant non-finite
    ok = shaped & (det > _MINOR_FLOOR) & (det < math.inf)
    if ok.all():
        return None
    i = int(np.argmin(ok))
    if not np.isfinite(flat[i]).all():
        return i, ValueError(f"{name} must have finite entries")
    if shaped[i] and not math.isfinite(det[i]):
        scale = max(map(abs, flat[i].tolist()))
        return i, ValueError(
            f"2x2 determinant overflows double precision (largest entry {scale:.3e})"
        )
    return i, ValueError(f"{name} must be symmetric positive-definite")


def _check_covariance(c: np.ndarray, name: str) -> np.ndarray:
    """``c`` as a float array, a (2, 2) matrix or a (..., 2, 2) stack; ValueError
    for the wrong shape or the first matrix that ``_first_refused`` refuses."""
    c = np.asarray(c, dtype=float)
    if c.shape[-2:] != (2, 2):
        raise ValueError(f"{name} must have shape (..., 2, 2), got {c.shape}")
    if refusal := _first_refused(c, name):
        raise refusal[1]
    return c


def _symmetric(c00, c01, c11) -> np.ndarray:
    """[[c00, c01], [c01, c11]]: (2, 2) for floats, (..., 2, 2) for arrays."""
    c00, c01, c11 = np.broadcast_arrays(c00, c01, c11)
    return np.stack([c00, c01, c01, c11], axis=-1).reshape(c00.shape + (2, 2))


def _widest(theta) -> float:
    """The angle of largest magnitude of a float or an array, a nan first;
    ValueError unless it is finite."""
    return _require_finite(np.ravel(theta)[np.argmax(np.abs(theta))], "theta")


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

    def as_array(self) -> np.ndarray:
        return np.array([self.q, self.p], dtype=float)


@dataclass(frozen=True)
class GaussianState2D:
    """Normalized phase-space Gaussian: mean point plus SPD covariance."""

    mean: PhaseVector
    cov: np.ndarray

    def __post_init__(self) -> None:
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (2, 2):
            raise ValueError(f"cov must have shape (2, 2), got {cov.shape}")
        object.__setattr__(self, "cov", _check_covariance(cov, "cov"))


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


def rotation_matrix(theta: float) -> np.ndarray:
    """Clockwise phase-space rotation [[c, s], [-s, c]] by angle theta."""
    theta = _require_finite(theta, "theta")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def step_covariance(r: float, theta) -> np.ndarray:
    """Covariance C_1 of one observed step: (2, 2) for an angle ``theta``,
    (..., 2, 2) for an array of them, taken elementwise.

    Entries are evaluated literally:

        [[cosh(2r) + cos^2(theta) sinh(2r),  sin(2 theta) sinh(2r) / 2],
         [sin(2 theta) sinh(2r) / 2,         cosh(2r) - cos^2(theta) sinh(2r)]]

    which coincides with seed + rotated-seed composition
    C + M^-1 C M^-T (an identity the test-suite re-derives numerically).
    The largest |theta| is the one a refusal names.  cos(theta) ** 2 is
    libm's pow, as Python's ``**`` on a float, through ``np.float_power``:
    numpy's square rounds about one value in a thousand the other way.
    """
    r = _require_finite(r, "r")
    widest = _widest(theta)
    if math.isinf(2.0 * widest):
        raise ValueError(f"theta must satisfy |theta| <= max_float / 2, got {widest!r}")
    try:
        ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    except OverflowError:
        raise ValueError(f"r must keep cosh(2r) and sinh(2r) finite, got {r!r}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = np.float_power(np.cos(theta), 2.0)
        return _symmetric(ch + c2 * sh, 0.5 * np.sin(2.0 * theta) * sh, ch - c2 * sh)


# math.remainder element by element: numpy has no IEEE remainder.
_remainder = np.vectorize(math.remainder, otypes=[float])


def accumulate_covariance(c1: np.ndarray, theta, n) -> np.ndarray:
    """Covariance after n steps: sum_{j=0}^{n-1} M^-j C_1 (M^-j)^T, in closed form.

    Split C_1 = a I + B with a = tr C_1 / 2 and B traceless, written as
    b = (C11 - C22)/2 + i C12.  Conjugating B by M^-j turns b through
    2 j theta, so the sum over j is a geometric series:

        C_N = N a I + D_N rot_{(N-1) eps}(B),   D_N = sin(N eps) / sin(eps),

    where rot_phi turns b through phi and eps = remainder(theta, pi).
    Reducing modulo pi first is exact and cancels the (-1)^k signs of
    theta = k pi + eps; as sin(eps) -> 0 the factor tends to N, which is
    taken at eps == 0.  One step returns the entries of C_1 unchanged.

    ``c1`` (one matrix or a (..., 2, 2) stack), ``theta`` and ``n`` broadcast
    elementwise, each element with the expression tree the formula has on
    Python floats and complexes, so with the bits it gets alone: b = D (x +
    i y) is (D x - 0 y, D y + 0 x), as Python multiplies a real by a
    complex, turned by (cos, sin) as one complex product.

    Refused, in this order: ``c1`` not of shape (..., 2, 2), the widest
    theta if it is not finite, the first n that is not an integer >= 1, and
    then, element by element, the first C_1 or C_N that is not finite SPD,
    C_1 first and named "c1", C_N named "cov".  A lone (2, 2) C_1 is checked
    once, as the first element.
    """
    c1 = np.asarray(c1, dtype=float)
    if c1.shape[-2:] != (2, 2):
        raise ValueError(f"c1 must have shape (..., 2, 2), got {c1.shape}")
    c00, c01, c11 = c1[..., 0, 0], c1[..., 0, 1], c1[..., 1, 1]
    _widest(theta)
    n = np.asarray(n)
    with np.errstate(invalid="ignore"):
        counts = (n >= 1) & (n % 1 == 0)
    if not counts.all():
        _require_int(n.ravel()[np.argmin(counts)].item(), "n")
    eps = _remainder(theta, math.pi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dirichlet = np.where(eps == 0.0, n, np.sin(n * eps) / np.sin(eps))
        turn = (n - 1) * eps
        x, y = 0.5 * (c00 - c11), c01
        b_re, b_im = dirichlet * x - 0.0 * y, dirichlet * y + 0.0 * x
        cos, sin = np.cos(turn), np.sin(turn)
        b_re, b_im = b_re * cos - b_im * sin, b_re * sin + b_im * cos
        a = 0.5 * (c00 + c11)
        summed = n * a + b_re, b_im, n * a - b_re
    # one step is C_1 itself
    cn = _symmetric(*(np.where(n == 1, c, e) for c, e in zip((c00, c01, c11), summed)))
    stack = c1 if c1.ndim == 2 else np.broadcast_to(c1, cn.shape)
    # N by N; min keeps the first of equal indices, C_1
    found = (_first_refused(stack, "c1"), _first_refused(cn, "cov"))
    refusals = [refusal for refusal in found if refusal]
    if refusals:
        raise min(refusals, key=lambda refusal: refusal[0])[1]
    return cn


def det_cn_asymptotic(r: float, n: int) -> float:
    """Leading large-n value of sqrt(det C_N): n * cosh(2r).

    Valid when the per-step angle is small while the accumulated angle is
    large (many steps); the exact accumulated sum is the reference it is
    compared against.
    """
    r = _require_finite(r, "r")
    return float(_require_int(n, "n")) * math.cosh(2.0 * r)
