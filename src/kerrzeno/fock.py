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
  ``tail_mass`` and must stay below the construction ``tail_budget``.

Displacement and squeeze operators are dense matrix exponentials of their
tridiagonal generators (scipy.linalg.expm, Pade scaling-and-squaring).
Closed-form amplitudes for the common special cases live in the
test-suite as independent cross-checks; the production path uses one
uniform machinery so arbitrary seed states are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm
from scipy.special import gammainc

from .phase_space import PhaseVector

__all__ = [
    "DEFAULT_TAIL_BUDGET",
    "TruncationError",
    "FockVector",
    "MeasurementSpec",
    "QuadratureGrid",
    "annihilation_matrix",
    "default_dim",
    "coherent_state",
    "squeezed_coherent_state",
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
    """Seed state of the displaced measurement family.

    ``vacuum`` and ``squeezed`` seeds admit the closed Gaussian kernel used
    by the observed-dynamics layer; ``custom`` seeds are supported only by
    the exact Fock operations.
    """

    kind: str
    r: float = 0.0
    state: FockVector | None = None

    _KINDS = ("vacuum", "squeezed", "custom")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")
        if self.kind == "custom" and self.state is None:
            raise ValueError("custom spec requires a seed FockVector")
        if not math.isfinite(self.r):
            raise ValueError("r must be finite")

    @classmethod
    def vacuum(cls) -> MeasurementSpec:
        return cls(kind="vacuum")

    @classmethod
    def squeezed(cls, r: float) -> MeasurementSpec:
        return cls(kind="squeezed", r=float(r))

    @classmethod
    def custom(cls, state: FockVector) -> MeasurementSpec:
        return cls(kind="custom", state=state)

    @property
    def is_gaussian(self) -> bool:
        return self.kind in ("vacuum", "squeezed")

    @property
    def seed_r(self) -> float:
        """Squeezing parameter of a Gaussian seed (0 for the vacuum)."""
        if not self.is_gaussian:
            raise ValueError("custom seeds have no squeezing parameter")
        return self.r if self.kind == "squeezed" else 0.0

    def seed_vector(self, dim: int) -> np.ndarray:
        """Seed amplitudes at the requested cutoff."""
        if self.kind == "vacuum":
            vec = np.zeros(dim, dtype=complex)
            vec[0] = 1.0
            return vec
        if self.kind == "squeezed":
            return squeeze_matrix(self.r, dim)[:, 0].astype(complex)
        assert self.state is not None
        if self.state.dim > dim:
            raise ValueError(
                f"custom seed has dim {self.state.dim} > requested dim {dim}"
            )
        vec = np.zeros(dim, dtype=complex)
        vec[: self.state.dim] = self.state.amps
        return vec


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


def _poisson_tail(dim: int, mu: float) -> float:
    """P(X >= dim) for X ~ Poisson(mu)."""
    if mu == 0.0:
        return 0.0
    return float(gammainc(dim, mu))


def _required_dim_poisson(mu: float, tail_budget: float) -> int:
    d = max(1, default_dim(mu))
    while _poisson_tail(d, mu) > tail_budget:
        d = int(1.5 * d) + 1
    return d


def coherent_state(
    alpha: complex, dim: int | None = None, tail_budget: float = DEFAULT_TAIL_BUDGET
) -> FockVector:
    """Coherent state amplitudes e^{-|a|^2/2} a^n / sqrt(n!).

    The recurrence c_n = c_{n-1} alpha / sqrt(n) avoids overflow of the
    separate factors.  The truncated weight is the analytic Poisson tail.
    """
    alpha = complex(alpha)
    mu = abs(alpha) ** 2
    if dim is None:
        dim = default_dim(mu)
    tail = _poisson_tail(dim, mu)
    if tail > tail_budget:
        need = _required_dim_poisson(mu, tail_budget)
        raise TruncationError(
            f"dim={dim} leaves Poisson tail {tail:.3e} > budget {tail_budget:.1e}; "
            f"need dim >= {need}",
            required_dim=need,
        )
    amps = np.empty(dim, dtype=complex)
    amps[0] = math.exp(-0.5 * mu)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return FockVector(amps=amps, dim=dim, tail_mass=tail)


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """exp(alpha a^dag - alpha^* a) on the truncated basis."""
    a = annihilation_matrix(dim)
    if alpha.imag == 0.0:
        return expm(alpha.real * (a.T - a))
    gen = alpha * a.conj().T - np.conj(alpha) * a
    return expm(gen)


def squeeze_matrix(r: float, dim: int) -> np.ndarray:
    """exp(r (a^dag a^dag - a a)/2); amplifies q for r > 0."""
    a = annihilation_matrix(dim)
    return expm(0.5 * r * (a.T @ a.T - a @ a))


def _required_dim_from_amps(amps_full: np.ndarray, tail_budget: float) -> int:
    """Smallest cutoff whose beyond-cutoff mass fits the budget."""
    mass_from = np.cumsum(np.abs(amps_full[::-1]) ** 2)[::-1]
    over = np.nonzero(mass_from > tail_budget)[0]
    if len(over) == 0:
        return 1
    required = int(over[-1]) + 1
    # the working space itself may be too small to say
    return 2 * len(amps_full) if required >= len(amps_full) else required


def displaced_seed(
    spec: MeasurementSpec,
    alpha: complex,
    dim: int,
    tail_budget: float = DEFAULT_TAIL_BUDGET,
) -> FockVector:
    """Member |z> = D(alpha)|seed> of the measurement family.

    Truncated-generator exponentials are exactly unitary, so truncation
    error never shows up as a norm deficit; instead the state is built in
    a working space with headroom and the weight landing at or beyond the
    requested cutoff is reported (and budget-checked) as the tail.
    """
    alpha = complex(alpha)
    if spec.kind == "vacuum":
        seed_nbar, seed_r = 0.0, 0.0
    elif spec.kind == "squeezed":
        seed_nbar, seed_r = math.sinh(spec.r) ** 2, spec.r
    else:
        assert spec.state is not None
        n = np.arange(spec.state.dim, dtype=float)
        seed_nbar, seed_r = float(np.sum(n * np.abs(spec.state.amps) ** 2)), 0.0
    span = (abs(alpha) + math.sqrt(seed_nbar)) ** 2
    dim_work = max(dim, default_dim(span, seed_r))
    if spec.kind == "custom":
        dim_work = max(dim_work, spec.state.dim)
    seed = spec.seed_vector(dim_work)
    amps_full = displacement_matrix(alpha, dim_work) @ seed
    tail = float(np.sum(np.abs(amps_full[dim:]) ** 2)) + max(
        0.0, 1.0 - float(np.vdot(amps_full, amps_full).real)
    )
    if tail > tail_budget:
        need = _required_dim_from_amps(amps_full, tail_budget)
        raise TruncationError(
            f"dim={dim} leaves tail mass {tail:.3e} > budget {tail_budget:.1e}; "
            f"need dim >= {need}",
            required_dim=need,
        )
    return FockVector(amps=amps_full[:dim], dim=dim, tail_mass=tail)


def squeezed_coherent_state(
    alpha: complex,
    r: float,
    dim: int | None = None,
    tail_budget: float = DEFAULT_TAIL_BUDGET,
) -> FockVector:
    """Displaced squeezed vacuum D(alpha) S(r)|0>."""
    alpha = complex(alpha)
    if dim is None:
        dim = default_dim(abs(alpha) ** 2 + math.sinh(r) ** 2, r)
    return displaced_seed(MeasurementSpec.squeezed(r), alpha, dim, tail_budget)


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


@lru_cache(maxsize=4)
def _radial_displacements(dim: int, radii: tuple[float, ...]) -> np.ndarray:
    """Real displacement matrices D(rho) for each grid radius."""
    a = annihilation_matrix(dim)
    gen = a.T - a
    out = np.empty((len(radii), dim, dim))
    for i, rho in enumerate(radii):
        out[i] = expm(rho * gen)
    return out


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


def _phase_table(dim: int, angles: np.ndarray) -> np.ndarray:
    """e^{-i n phi} with shape (dim, n_phi)."""
    return np.exp(-1j * np.outer(np.arange(dim), angles))


def identity_resolution_defect(
    spec: MeasurementSpec,
    dim: int,
    grid: QuadratureGrid | None = None,
    dim_check: int = 10,
) -> float:
    """Departure of (1/2pi) integral dq dp |z><z| from the identity.

    The integral is accumulated over a midpoint polar grid in alpha
    (measure dq dp = 2 d^2 alpha) for matrix elements m, n <= dim_check,
    and the maximum absolute deviation from delta_mn is returned.  The
    grid, not the physics, limits the result; doubling the grid must
    shrink it.
    """
    if not 0 < dim_check < dim:
        raise ValueError("need 0 < dim_check < dim")
    grid = grid or QuadratureGrid()
    r_max = grid.r_max if grid.r_max is not None else math.sqrt(2.0 * dim_check) + 5.0
    radii, angles, dr, dphi = grid.nodes(r_max)
    seed = spec.seed_vector(dim)
    phases = _phase_table(dim, angles)
    disp = _radial_displacements(dim, tuple(float(x) for x in radii))
    k = dim_check + 1
    gram = np.zeros((k, k), dtype=complex)
    rotated = phases * seed[:, None]
    for i, rho in enumerate(radii):
        block = disp[i] @ rotated
        rows = np.conj(phases[:k, :]) * block[:k, :]
        gram += (rho * dr * dphi) * (rows @ rows.conj().T)
    gram /= math.pi
    return float(np.max(np.abs(gram - np.eye(k))))


def transition_density(
    z_from: PhaseVector,
    z_to: PhaseVector,
    chi_tau: float,
    spec: MeasurementSpec,
    dim: int,
    tail_budget: float = DEFAULT_TAIL_BUDGET,
) -> float:
    """One-step outcome density |<z_to| U(tau) |z_from>|^2 / (2 pi).

    This is a probability density per dq dp of the outcome label z_to.
    """
    psi = displaced_seed(spec, z_from.to_alpha(), dim, tail_budget)
    evolved = kerr_propagate(psi, chi_tau)
    target = displaced_seed(spec, z_to.to_alpha(), dim, tail_budget)
    overlap = complex(np.vdot(target.amps, evolved.amps))
    return abs(overlap) ** 2 / (2.0 * math.pi)


def transition_normalization(
    z_from: PhaseVector,
    chi_tau: float,
    spec: MeasurementSpec,
    dim: int,
    grid: QuadratureGrid | None = None,
    tail_budget: float = DEFAULT_TAIL_BUDGET,
) -> float:
    """Grid integral of the one-step density over all outcomes.

    Completeness of the displaced family makes the exact value 1; the
    return value exposes the quadrature error.
    """
    grid = grid or QuadratureGrid()
    alpha_from = z_from.to_alpha()
    r_max = grid.r_max if grid.r_max is not None else abs(alpha_from) + 6.0
    radii, angles, dr, dphi = grid.nodes(r_max)
    psi = displaced_seed(spec, alpha_from, dim, tail_budget)
    evolved = kerr_propagate(psi, chi_tau).amps
    seed = spec.seed_vector(dim)
    phases = _phase_table(dim, angles)
    disp = _radial_displacements(dim, tuple(float(x) for x in radii))
    rotated_seed = phases * seed[:, None]
    total = 0.0
    for i, rho in enumerate(radii):
        family = np.conj(phases) * (disp[i] @ rotated_seed)
        overlaps = family.conj().T @ evolved
        total += (rho * dr * dphi) * float(np.sum(np.abs(overlaps) ** 2))
    # measure dq dp = 2 d^2 alpha against the 1/(2 pi) density prefactor
    return total / math.pi


def dichotomic_survival_exact(
    alpha0: complex,
    spec: MeasurementSpec,
    chi: float,
    t: float,
    n_steps: int,
    dim: int | None = None,
    tail_budget: float = DEFAULT_TAIL_BUDGET,
) -> float:
    """Survival under a yes/no check of |z_0> repeated n_steps times.

    Every intermediate outcome is assumed to confirm |z_0>, so the result
    is s^N with s = |<z_0| U(t/N) |z_0>|^2.  Frequent checking drives this
    to one, the opposite of the continuous-family behaviour.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    alpha0 = complex(alpha0)
    if dim is None:
        r = spec.seed_r if spec.is_gaussian else 0.0
        dim = default_dim(abs(alpha0) ** 2 + math.sinh(r) ** 2, r)
    psi0 = displaced_seed(spec, alpha0, dim, tail_budget)
    stepped = kerr_propagate(psi0, chi * t / n_steps)
    norm_sq = psi0.norm_sq
    s = abs(complex(np.vdot(psi0.amps, stepped.amps))) ** 2 / (norm_sq * norm_sq)
    return float(s**n_steps)
