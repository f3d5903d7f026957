"""
Truncated Fock-space reference numerics for a single Kerr mode.

This module is the exact arm of the package: states are complex amplitude
vectors over the number basis |0>..|dim-1| and every quantity predicted by
the Gaussian/linearized layer can be recomputed here from first
principles, up to a controlled truncation error.

Conventions
-----------
* alpha = (q + i p)/sqrt(2); the displacement is
  D(alpha) = exp(alpha a^dag - alpha^* a).
* The squeeze S(r) = exp(r (a^dag a^dag - a a) / 2) stretches the q
  quadrature: Var(q) = exp(2r)/2, Var(p) = exp(-2r)/2 for S(r)|0>,
  matching ``phase_space.seed_covariance``.
* Kerr propagation over a dimensionless time chi_t multiplies the n-th
  amplitude by exp(-i chi_t n^2).
* Truncation: constructed states keep their raw amplitudes (no
  renormalization); the weight lost beyond the cutoff is tracked as
  ``tail_mass`` and must stay below ``DEFAULT_TAIL_BUDGET``.

Measurement family members |alpha, r> = D(alpha) S(r)|0>, coherent states
(r = 0) among them, all come from ``displaced_seed`` and the three-term
recurrence of their number amplitudes (Yuen, PRA 13, 2226 (1976)), so
every amplitude below the cutoff is exact and the tail is
1 - sum_{n<dim} |c_n|^2.  ``displaced_seed`` is the one constructor and
the one place that knows the default cutoff rule.  ``displacement_matrix``
and ``squeeze_matrix`` are dense test oracles for that recurrence, kept in
the package only because the benchmark's layer tracer wraps them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .phase_space import PhaseVector

__all__ = [
    "DEFAULT_TAIL_BUDGET",
    "TruncationError",
    "FockVector",
    "MeasurementSpec",
    "QuadratureGrid",
    "annihilation_matrix",
    "default_dim",
    "displacement_matrix",
    "squeeze_matrix",
    "displaced_seed",
    "kerr_propagate",
    "mean_a",
    "mean_a_closed_form",
    "number_moment",
    "number_squared_variance",
    "quadrature_mean_cov",
    "transition_density",
    "transition_normalization",
    "identity_resolution_defect",
    "dichotomic_survival_exact",
]

DEFAULT_TAIL_BUDGET = 1e-10


class TruncationError(ValueError):
    """The requested cutoff cannot hold the state within the tail budget."""

    def __init__(self, message: str, required_dim: int | None = None) -> None:
        super().__init__(message)
        self.required_dim = required_dim


@dataclass(frozen=True)
class FockVector:
    """Amplitudes over |0>..|dim-1> plus the estimated weight beyond."""

    amps: np.ndarray
    dim: int
    tail_mass: float

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amps, dtype=complex)
        if amps.shape != (self.dim,):
            raise ValueError(f"amps must have shape ({self.dim},), got {amps.shape}")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amps must be finite")
        object.__setattr__(self, "amps", amps)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


@dataclass(frozen=True)
class MeasurementSpec:
    """Seed S(r)|0> of the displaced measurement family; r = 0 is the vacuum.

    Every seed admits both the exact ladder construction and the closed
    Gaussian kernel of the observed-dynamics layer.
    """

    r: float = 0.0

    def __post_init__(self) -> None:
        if not abs(self.r) <= 700.0:
            raise ValueError(f"r must satisfy |r| <= 700 (cosh r finite), got {self.r}")

    @classmethod
    def vacuum(cls) -> MeasurementSpec:
        return cls()


def annihilation_matrix(dim: int) -> np.ndarray:
    """Matrix of a on the truncated basis: a|n> = sqrt(n)|n-1>."""
    a = np.zeros((dim, dim))
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def default_dim(n_bar: float, r: float = 0.0) -> int:
    """Cutoff rule ceil(n_bar + 10 e^|r| sqrt(n_bar + 1) + 20).

    With r = 0 this is the plain coherent-state rule; the e^|r| factor
    widens the margin for squeezed number distributions.
    """
    if n_bar < 0:
        raise ValueError("n_bar must be >= 0")
    return int(math.ceil(n_bar + 10.0 * math.exp(abs(r)) * math.sqrt(n_bar + 1.0) + 20.0))


# Largest growth the ladder recurrence carries before it rescales; far
# enough below overflow that one more step cannot reach it.
_LADDER_RANGE = 1e150


def _ladder_amplitudes(alpha, r: float, n_rows: int) -> np.ndarray:
    """Number amplitudes c_0..c_{n_rows-1} of D(alpha) S(r)|0>, exact.

    With t = -tanh r the state is the eigenvector of a + t a^dag with
    eigenvalue g = alpha + t alpha^*, so

        c_0 = exp(-|alpha|^2/2 - t alpha^*^2/2) / sqrt(cosh r),
        c_{n+1} = (g c_n - t sqrt(n) c_{n-1}) / sqrt(n + 1),

    which at r = 0 is the coherent recurrence c_{n+1} = alpha c_n / sqrt(n+1).
    ``alpha`` may be an array; the result has shape (n_rows,) + alpha.shape.
    Each column runs as c_n = u_n e^s, with s = log|c_0| where c_0 is below
    1/_LADDER_RANGE and raised whenever u passes _LADDER_RANGE, so states
    whose low amplitudes underflow still come out right.
    """
    alpha = np.asarray(alpha, dtype=complex)
    t = -math.tanh(r)
    g = alpha + t * alpha.conj()
    log_c0 = -(np.abs(alpha) ** 2 + t * alpha.conj() ** 2 + math.log(math.cosh(r))) / 2.0
    log_scale = np.where(log_c0.real < -math.log(_LADDER_RANGE), log_c0.real, 0.0)
    prev, cur = np.zeros_like(alpha), np.exp(log_c0 - log_scale)
    scale = np.exp(log_scale)
    out = np.empty((n_rows,) + alpha.shape, dtype=complex)
    for n in range(n_rows):
        if (big := np.abs(cur) > _LADDER_RANGE).any():
            shrink = np.where(big, 1.0 / _LADDER_RANGE, 1.0)
            prev, cur = prev * shrink, cur * shrink
            log_scale = log_scale - np.log(shrink)
            scale = np.exp(log_scale)
        out[n] = cur * scale
        prev, cur = cur, (g * cur - t * math.sqrt(n) * prev) / math.sqrt(n + 1)
    return out


def _required_dim(family, rows: int) -> int | None:
    """Smallest cutoff whose weight reaches 1 - DEFAULT_TAIL_BUDGET.

    ``family(rows)`` gives c_0..c_{rows-1}; rows grow until their weight
    reaches the target.  If it stops growing first (the budget is below
    the rounding floor), no cutoff fits and the result is None.
    """
    mass, last = np.cumsum(np.abs(family(rows)) ** 2), -1.0
    while last < mass[-1] < 1.0 - DEFAULT_TAIL_BUDGET:
        last, rows = mass[-1], int(1.5 * rows) + 1
        mass = np.cumsum(np.abs(family(rows)) ** 2)
    fits = mass >= 1.0 - DEFAULT_TAIL_BUDGET
    return int(np.argmax(fits)) + 1 if fits[-1] else None


def _expm_anti_hermitian(g: np.ndarray) -> np.ndarray:
    """exp(g) for anti-Hermitian g: V e^{-i w} V^dag with (w, V) = eigh(i g)."""
    w, v = np.linalg.eigh(1j * g)
    return (v * np.exp(-1j * w)) @ v.conj().T


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """exp(alpha a^dag - alpha^* a) on the truncated basis.

    A dense test oracle for the ladder recurrence of ``displaced_seed``.
    """
    a = annihilation_matrix(dim)
    return _expm_anti_hermitian(alpha * a.T - np.conj(alpha) * a)


def squeeze_matrix(r: float, dim: int) -> np.ndarray:
    """exp(r (a^dag a^dag - a a)/2); amplifies q for r > 0.

    A dense test oracle for the squeezed seed of the ladder recurrence.
    """
    a = annihilation_matrix(dim)
    return _expm_anti_hermitian(0.5 * r * (a.T @ a.T - a @ a))


def displaced_seed(
    spec: MeasurementSpec, alpha: complex, dim: int | None = None
) -> FockVector:
    """Member |z> = D(alpha) S(r)|0> of the measurement family.

    The amplitudes come from the exact ladder recurrence, and the tail
    1 - sum_{n<dim} |c_n|^2 must fit ``DEFAULT_TAIL_BUDGET``.  With
    ``dim=None`` the cutoff is ``default_dim(|alpha|^2 + sinh(r)^2, r)``,
    widened to the smallest cutoff that fits when that rule leaves too
    much tail.  An explicit ``dim`` that is too small raises a
    ``TruncationError`` naming that smallest cutoff.
    """
    alpha = complex(alpha)
    family = partial(_ladder_amplitudes, alpha, spec.r)
    rule = default_dim(abs(alpha) ** 2 + math.sinh(spec.r) ** 2, spec.r)
    cutoff = rule if dim is None else dim
    amps = family(cutoff)
    tail = max(0.0, 1.0 - float(np.vdot(amps, amps).real))
    if tail > DEFAULT_TAIL_BUDGET:
        need = _required_dim(family, max(cutoff, rule))
        if dim is None and need is not None:
            cutoff, amps = need, family(need)
            tail = max(0.0, 1.0 - float(np.vdot(amps, amps).real))
        if tail > DEFAULT_TAIL_BUDGET:
            hint = (
                f"need dim >= {need}" if need else "no cutoff meets it in double precision"
            )
            raise TruncationError(
                f"dim={cutoff} leaves tail mass {tail:.3e} > budget "
                f"{DEFAULT_TAIL_BUDGET:.1e}; {hint}",
                required_dim=need,
            )
    return FockVector(amps=amps, dim=cutoff, tail_mass=tail)


def kerr_propagate(psi: FockVector, chi_t: float) -> FockVector:
    """Apply exp(-i chi_t n^2) levelwise; phases only, norm unchanged."""
    if not math.isfinite(chi_t * float(psi.dim - 1) ** 2):
        raise ValueError(
            f"chi_t * (dim - 1)**2 must be finite, got chi_t={chi_t!r} at dim={psi.dim}"
        )
    n = np.arange(psi.dim)
    amps = psi.amps * np.exp(-1j * chi_t * n.astype(float) ** 2)
    return FockVector(amps=amps, dim=psi.dim, tail_mass=psi.tail_mass)


def mean_a(psi: FockVector) -> complex:
    """<a> = sum_n sqrt(n+1) conj(c_n) c_{n+1}.

    The truncation error is bounded by sqrt(tail_mass * dim), so keep the
    tail budget well below the squared tolerance of downstream use.
    """
    c = psi.amps
    n = np.arange(1, psi.dim)
    return complex(np.sum(np.sqrt(n) * np.conj(c[: psi.dim - 1]) * c[1:]))


def mean_a_closed_form(alpha: complex, chi_t: float) -> complex:
    """Collapse-revival curve of <a> for an initial coherent state.

        alpha e^{-2|alpha|^2 sin^2(chi_t)} e^{-i [chi_t + |alpha|^2 sin(2 chi_t)]}
    """
    alpha = complex(alpha)
    if not (math.isfinite(chi_t) and math.isfinite(abs(alpha))):
        raise ValueError("inputs must be finite")
    mu = abs(alpha) ** 2
    envelope = math.exp(-2.0 * mu * math.sin(chi_t) ** 2)
    phase = chi_t + mu * math.sin(2.0 * chi_t)
    return alpha * envelope * complex(math.cos(phase), -math.sin(phase))


def _mean_a2(psi: FockVector) -> complex:
    c = psi.amps
    n = np.arange(psi.dim - 2)
    w = np.sqrt((n + 1.0) * (n + 2.0))
    return complex(np.sum(w * np.conj(c[:-2]) * c[2:]))


def number_moment(psi: FockVector, k: int) -> float:
    """<n^k> for k in 1..4 by direct summation."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"k must be in 1..4, got {k}")
    n = np.arange(psi.dim, dtype=float)
    return float(np.sum(n**k * np.abs(psi.amps) ** 2))


def number_squared_variance(psi: FockVector) -> float:
    """Var(n^2) = <n^4> - <n^2>^2, the short-time survival exponent scale."""
    m2 = number_moment(psi, 2)
    return number_moment(psi, 4) - m2 * m2


def quadrature_mean_cov(psi: FockVector) -> tuple[np.ndarray, np.ndarray]:
    """Mean (q, p) and quadrature covariance from ladder sums.

    Uses <q^2> = Re<a^2> + <n> + 1/2 and partners; the test-suite checks
    the same moments against dense operator matrices.
    """
    a1 = mean_a(psi)
    a2 = _mean_a2(psi)
    nbar = number_moment(psi, 1)
    mq = math.sqrt(2.0) * a1.real
    mp = math.sqrt(2.0) * a1.imag
    qq = a2.real + nbar + 0.5 - mq * mq
    pp = -a2.real + nbar + 0.5 - mp * mp
    qp = a2.imag - mq * mp
    return np.array([mq, mp]), np.array([[qq, qp], [qp, pp]])


@dataclass(frozen=True)
class QuadratureGrid:
    """Midpoint polar grid on the alpha plane.

    ``r_max = None`` lets each integral pick its own radial extent
    (identity checks use sqrt(2 dim_check) + 5; transition integrals use
    the source amplitude plus a Gaussian margin).
    """

    n_r: int = 200
    n_phi: int = 128
    r_max: float | None = None

    def __post_init__(self) -> None:
        if self.n_r < 1 or self.n_phi < 1:
            raise ValueError("n_r and n_phi must be >= 1")
        if self.r_max is not None and not (
            math.isfinite(self.r_max) and self.r_max > 0
        ):
            raise ValueError("r_max must be positive and finite")

    def doubled(self) -> QuadratureGrid:
        return QuadratureGrid(2 * self.n_r, 2 * self.n_phi, self.r_max)

    def nodes(self, r_max: float) -> tuple[np.ndarray, np.ndarray, float, float]:
        dr = r_max / self.n_r
        dphi = 2.0 * math.pi / self.n_phi
        radii = (np.arange(self.n_r) + 0.5) * dr
        angles = (np.arange(self.n_phi) + 0.5) * dphi
        return radii, angles, dr, dphi


# Complex amplitudes one ladder evaluation of a block of rings may hold.
_GRAM_BLOCK_ELEMENTS = 2**16


def _family_gram(
    spec: MeasurementSpec, n_rows: int, grid: QuadratureGrid, r_max: float
) -> np.ndarray:
    """Grid estimate of (1/2pi) integral dq dp |z><z|, rows and columns < n_rows.

    The measure is dq dp = 2 d^2 alpha = 2 rho dr dphi, summed one ring of
    radius rho at a time, in order of rho.  The members come from the
    ladder recurrence, run once for a block of rings of at most
    _GRAM_BLOCK_ELEMENTS amplitudes (one ring if a ring alone is larger).
    The recurrence acts node by node, so a block gives each ring the bits
    it would get alone, and the ring-ordered sum keeps the gram's bits too.
    """
    radii, angles, dr, dphi = grid.nodes(r_max)
    gram = np.zeros((n_rows, n_rows), dtype=complex)
    per_block = max(1, _GRAM_BLOCK_ELEMENTS // (n_rows * len(angles)))
    phases = np.exp(1j * angles)
    for lo in range(0, len(radii), per_block):
        block = radii[lo : lo + per_block]
        rings = _ladder_amplitudes(block[:, None] * phases, spec.r, n_rows)
        for k, rho in enumerate(block):
            ring = rings[:, k]
            gram += (rho * dr * dphi) * (ring @ ring.conj().T)
    return gram / math.pi


def identity_resolution_defect(
    spec: MeasurementSpec,
    grid: QuadratureGrid | None = None,
    dim_check: int = 10,
) -> float:
    """Departure of (1/2pi) integral dq dp |z><z| from the identity.

    The integral is accumulated over a midpoint polar grid in alpha
    (measure dq dp = 2 d^2 alpha) for matrix elements m, n <= dim_check,
    and the maximum absolute deviation from delta_mn is returned.  The
    family members are exact at every row, so the gram needs only
    dim_check + 1 rows, the grid alone limits the result, and doubling it
    must shrink it.  The ladder recurrence runs over blocks of rings, and
    the rings are summed one by one in order of radius, so the result has
    the same bits as a ring-by-ring evaluation.
    """
    if dim_check < 1:
        raise ValueError(f"dim_check must be >= 1, got {dim_check}")
    grid = grid or QuadratureGrid()
    r_max = grid.r_max if grid.r_max is not None else math.sqrt(2.0 * dim_check) + 5.0
    gram = _family_gram(spec, dim_check + 1, grid, r_max)
    return float(np.max(np.abs(gram - np.eye(dim_check + 1))))


def transition_density(
    z_from: PhaseVector,
    z_to: PhaseVector,
    chi_tau: float,
    spec: MeasurementSpec,
    dim: int,
) -> float:
    """One-step outcome density |<z_to| U(tau) |z_from>|^2 / (2 pi).

    This is a probability density per dq dp of the outcome label z_to.
    """
    psi = displaced_seed(spec, z_from.to_alpha(), dim)
    evolved = kerr_propagate(psi, chi_tau)
    target = displaced_seed(spec, z_to.to_alpha(), dim)
    overlap = complex(np.vdot(target.amps, evolved.amps))
    return abs(overlap) ** 2 / (2.0 * math.pi)


def transition_normalization(
    z_from: PhaseVector,
    chi_tau: float,
    spec: MeasurementSpec,
    dim: int,
    grid: QuadratureGrid | None = None,
) -> float:
    """Grid integral of the one-step density over all outcomes.

    Completeness of the displaced family makes the exact value 1; the
    return value exposes the quadrature error.
    """
    grid = grid or QuadratureGrid()
    alpha_from = z_from.to_alpha()
    r_max = grid.r_max if grid.r_max is not None else abs(alpha_from) + 6.0
    psi = displaced_seed(spec, alpha_from, dim)
    evolved = kerr_propagate(psi, chi_tau).amps
    gram = _family_gram(spec, dim, grid, r_max)
    return float(np.vdot(evolved, gram @ evolved).real)


def dichotomic_survival_exact(psi0: FockVector, chi_t: float, n_steps: int) -> float:
    """Survival under a yes/no check of psi0 repeated n_steps times.

    Every intermediate outcome is assumed to confirm psi0, so the result
    is s^N with s = |<psi0| U(chi_t/N) |psi0>|^2 / <psi0|psi0>^2.  Frequent
    checking drives this to one, the opposite of the continuous-family
    behaviour.  Build psi0 once with ``displaced_seed`` and pass it to
    every N.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    stepped = kerr_propagate(psi0, chi_t / n_steps)
    norm_sq = psi0.norm_sq
    s = abs(complex(np.vdot(psi0.amps, stepped.amps))) ** 2 / (norm_sq * norm_sq)
    return float(s**n_steps)
