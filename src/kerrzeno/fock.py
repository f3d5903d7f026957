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
  the seed covariance C(r) of ``phase_space``.
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

from .phase_space import _int_text, _require_int

__all__ = [
    "DEFAULT_TAIL_BUDGET",
    "TruncationError",
    "FockVector",
    "MeasurementSpec",
    "QuadratureGrid",
    "default_dim",
    "displacement_matrix",
    "squeeze_matrix",
    "displaced_seed",
    "kerr_propagate",
    "mean_a",
    "mean_a_closed_form",
    "number_moment",
    "number_squared_variance",
    "identity_resolution_defect",
    "dichotomic_survival_exact",
]

DEFAULT_TAIL_BUDGET = 1e-10
# Largest cutoff: 2**20 amplitudes, 16 MiB, the budget of a sampler chunk.
_MAX_DIM = 2**20


class TruncationError(ValueError):
    """The requested cutoff cannot hold the state within the tail budget."""

    def __init__(self, message: str, required_dim: int | None = None) -> None:
        super().__init__(message)
        self.required_dim = required_dim


@dataclass(frozen=True)
class FockVector:
    """Amplitudes over |0>..|dim-1> plus the estimated weight beyond.

    ``amps`` holds one state, shape (dim,), or k stacked states that share
    the tail mass, shape (k, dim), as ``kerr_propagate`` makes from one
    state and k times; ``norm_sq`` is that of one state, and refuses a stack.
    """

    amps: np.ndarray
    dim: int
    tail_mass: float

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amps, dtype=complex)
        if amps.ndim not in (1, 2) or amps.shape[-1:] != (self.dim,):
            raise ValueError(
                f"amps must have shape ({self.dim},) or (k, {self.dim}), got {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amps must be finite")
        object.__setattr__(self, "amps", amps)

    def _one_state(self, what: str) -> np.ndarray:
        if self.amps.ndim != 1:
            raise ValueError(f"{what} takes one state, got amps of shape {self.amps.shape}")
        return self.amps

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self._one_state("norm_sq"), self.amps).real)


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


def _annihilation_matrix(dim: int) -> np.ndarray:
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
# Room the row bound of the ladder leaves for rounding: a relative factor far
# above the few ulps one row adds, and a floor above the subnormal range.
_BOUND_SLACK = 1.0 + 1e-12
_BOUND_FLOOR = 1e-300


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

    At r = 0, t == 0 and the terms in t are +-0, so the set-up drops them:
    g is alpha itself, log c_0 is -|alpha|^2/2 + 0j formed from one modulus,
    which also gives max|g|, and the t sqrt(n) c_{n-1} term and its c_{-1}
    are skipped.  That leaves every value as it was and can only flip the
    sign of a part that is exactly zero.  log c_0 stays complex, since
    numpy's real exp rounds apart from the complex one (libm's cexp).

    Rescale rule: row n tests |u_n| > _LADDER_RANGE column by column only
    when it could hold.  The recurrence gives, over all columns,

        max|u_{n+1}| <= (max|g| max|u_n| + |t| sqrt(n) max|u_{n-1}|) / sqrt(n + 1),

    and a row that tests resets max|u_n| to its exact value.  The running
    bound carries _BOUND_SLACK and _BOUND_FLOOR for rounding, so a row that
    skips the test is one where the test would find no column to rescale,
    and every rescale lands on the row where testing every row puts it.
    At r != 0 the bound starts unknown, so row 0 tests.  At r = 0 it starts
    at 1, which holds exactly: u_0 = cexp(x + 0i) = exp(x) with x = 0 for a
    shifted column and x = -|alpha|^2/2 <= 0 for the others, so |u_0| <= 1,
    well under _LADDER_RANGE, and row 0's test is skipped.
    Dividing by sqrt(n + 1) is a product with its reciprocal, and u e^s is
    skipped while every s is 0; numpy's complex-by-real quotient and product
    both round a nonzero part once, so the amplitudes keep their bits, up to
    the sign of a real or imaginary part that is exactly zero.  A 0-d
    ``alpha`` runs on numpy scalars, which round differently from the same
    alpha inside an array; each shape keeps its own bits.
    """
    alpha = np.asarray(alpha, dtype=complex)
    t = -math.tanh(r)
    if t:
        g = alpha + t * alpha.conj()
        log_c0 = -(np.abs(alpha) ** 2 + t * alpha.conj() ** 2 + math.log(math.cosh(r))) / 2.0
        g_max = float(np.max(np.abs(g), initial=0.0))
        prev, bound = np.zeros_like(alpha), math.inf
    else:  # alpha[()] keeps a 0-d alpha on numpy scalars, as g is at r != 0
        modulus = np.abs(alpha)
        g, log_c0 = alpha[()], modulus**2 * -0.5 + 0j
        g_max = float(np.max(modulus, initial=0.0))
        prev, bound = 0.0, 1.0
    log_scale = np.where(log_c0.real < -math.log(_LADDER_RANGE), log_c0.real, 0.0)
    cur = np.exp(log_c0 - log_scale)
    scale, scaled = np.exp(log_scale), bool(np.any(log_scale))
    bound_prev = 0.0
    out = np.empty((n_rows,) + alpha.shape, dtype=complex)
    for n in range(n_rows):
        if not bound <= _LADDER_RANGE:
            mag = np.abs(cur)
            if (big := mag > _LADDER_RANGE).any():
                shrink = np.where(big, 1.0 / _LADDER_RANGE, 1.0)
                prev, cur, mag = prev * shrink, cur * shrink, mag * shrink
                log_scale = log_scale - np.log(shrink)
                scale, scaled = np.exp(log_scale), True
            bound = float(np.max(mag, initial=0.0))
        out[n] = cur * scale if scaled else cur
        root_n, inv_root = math.sqrt(n), 1.0 / math.sqrt(n + 1)
        prev, cur = cur, (g * cur - t * root_n * prev if t else g * cur) * inv_root
        bound, bound_prev = (
            (g_max * bound + abs(t) * root_n * bound_prev) * inv_root * _BOUND_SLACK
            + _BOUND_FLOOR
        ), bound
    return out


def _required_dim(family, rows: int) -> int | None:
    """Smallest cutoff whose weight reaches 1 - DEFAULT_TAIL_BUDGET.

    ``family(rows)`` gives c_0..c_{rows-1}; rows grow, up to _MAX_DIM, until
    their weight reaches the target.  If it stops growing first (the budget
    is below the rounding floor) or needs more rows, the result is None.
    """
    mass, last = np.cumsum(np.abs(family(rows)) ** 2), -1.0
    while last < mass[-1] < 1.0 - DEFAULT_TAIL_BUDGET and rows < _MAX_DIM:
        last, rows = mass[-1], min(int(1.5 * rows) + 1, _MAX_DIM)
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
    a = _annihilation_matrix(dim)
    return _expm_anti_hermitian(alpha * a.T - np.conj(alpha) * a)


def squeeze_matrix(r: float, dim: int) -> np.ndarray:
    """exp(r (a^dag a^dag - a a)/2); amplifies q for r > 0.

    A dense test oracle for the squeezed seed of the ladder recurrence.
    """
    a = _annihilation_matrix(dim)
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
    ``TruncationError`` naming that smallest cutoff.  A ``dim`` or rule over
    _MAX_DIM levels, or a rule that overflows, raises one before any
    amplitude is computed.
    """
    alpha = complex(alpha)
    family = partial(_ladder_amplitudes, alpha, spec.r)
    try:
        rule = default_dim(abs(alpha) ** 2 + math.sinh(spec.r) ** 2, spec.r)
    except OverflowError:
        raise TruncationError(
            f"the cutoff rule for alpha={alpha!r}, r={spec.r!r} overflows, far over "
            f"the budget of {_MAX_DIM} levels"
        ) from None
    cutoff = rule if dim is None else dim
    if cutoff > _MAX_DIM:  # an explicit dim may be past the float range
        raise TruncationError(f"dim={_int_text(cutoff)} exceeds the budget of {_MAX_DIM} levels")
    amps = family(cutoff)
    tail = max(0.0, 1.0 - float(np.vdot(amps, amps).real))
    if tail > DEFAULT_TAIL_BUDGET:
        need = _required_dim(family, min(max(cutoff, rule), _MAX_DIM))
        if dim is None and need is not None:
            cutoff, amps = need, family(need)
            tail = max(0.0, 1.0 - float(np.vdot(amps, amps).real))
        if tail > DEFAULT_TAIL_BUDGET:
            hint = (
                f"need dim >= {need}" if need else f"no dim up to {_MAX_DIM} meets it"
            )
            raise TruncationError(
                f"dim={cutoff} leaves tail mass {tail:.3e} > budget "
                f"{DEFAULT_TAIL_BUDGET:.1e}; {hint}",
                required_dim=need,
            )
    return FockVector(amps=amps, dim=cutoff, tail_mass=tail)


def _require_kerr_times(chi_t, dim: int) -> None:
    """ValueError naming the first chi_t whose phase chi_t (dim - 1)^2 is not
    finite; the largest |chi_t| decides whether there is one."""
    levels = float(dim - 1) ** 2
    if not math.isfinite(float(np.max(np.abs(chi_t))) * levels):
        bad = next(c for c in np.ravel(chi_t).tolist() if not math.isfinite(c * levels))
        raise ValueError(
            f"chi_t * (dim - 1)**2 must be finite, got chi_t={bad!r} at dim={dim}"
        )


def kerr_propagate(psi: FockVector, chi_t) -> FockVector:
    """Apply exp(-i chi_t n^2) levelwise; phases only, norm unchanged.

    ``chi_t`` is a float, which propagates one state to one state, or a 1-D
    array of k times, which propagates one state to k stacked states in one
    (k, dim) pass.  Each amplitude is the product a float time gives alone,
    so a row of the stack has that time's bits.  A time whose largest phase
    overflows is refused before anything is exponentiated.
    """
    chi_t = np.asarray(chi_t, dtype=float)
    _require_kerr_times(chi_t, psi.dim)
    n = np.arange(psi.dim)
    amps = np.exp((-1j * chi_t)[..., None] * n.astype(float) ** 2)
    np.multiply(psi.amps, amps, out=amps)  # in place: one (k, dim) array per pass
    return FockVector(amps=amps, dim=psi.dim, tail_mass=psi.tail_mass)


def mean_a(psi: FockVector):
    """<a> = sum_n sqrt(n+1) conj(c_n) c_{n+1}: a complex for one state, a
    complex array for k stacked states, each row summed as it is alone.

    The truncation error is bounded by sqrt(tail_mass * dim), so keep the
    tail budget well below the squared tolerance of downstream use.
    """
    c = psi.amps
    n = np.arange(1, psi.dim)
    terms = np.conj(c[..., : psi.dim - 1])
    np.multiply(np.sqrt(n), terms, out=terms)  # in place, as kerr_propagate
    sums = np.sum(np.multiply(terms, c[..., 1:], out=terms), axis=-1)
    return complex(sums) if c.ndim == 1 else sums


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


def number_moment(psi: FockVector, k: int) -> float:
    """<n^k> for k in 1..4 by direct summation, of one state; ValueError for a stack."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"k must be in 1..4, got {k}")
    n = np.arange(psi.dim, dtype=float)
    return float(np.sum(n**k * np.abs(psi._one_state("number_moment")) ** 2))


def number_squared_variance(psi: FockVector) -> float:
    """Var(n^2) = <n^4> - <n^2>^2, the short-time survival exponent scale."""
    m2 = number_moment(psi, 2)
    return number_moment(psi, 4) - m2 * m2


@dataclass(frozen=True)
class QuadratureGrid:
    """Midpoint polar grid on the alpha plane.

    ``r_max = None`` lets each integral pick its own radial extent
    (``identity_resolution_defect`` uses sqrt(2 dim_check) + 5).
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


# Complex amplitudes one ladder evaluation of a block of rings may hold, and
# complex entries one stack of the block's ring products may hold.
_GRAM_BLOCK_ELEMENTS = 2**16


def _family_gram(
    spec: MeasurementSpec, n_rows: int, grid: QuadratureGrid, r_max: float
) -> np.ndarray:
    """Grid estimate of (1/2pi) integral dq dp |z><z|, rows and columns < n_rows.

    The measure is dq dp = 2 d^2 alpha = 2 rho dr dphi, summed one ring of
    radius rho at a time, in order of rho.  The members come from the
    ladder recurrence, run once for a block of rings of at most
    _GRAM_BLOCK_ELEMENTS amplitudes (one ring if a ring alone is larger).
    Each ring's product ``ring @ ring.conj().T`` is one matrix of a stacked
    ``np.matmul`` over at most _GRAM_BLOCK_ELEMENTS entries, weighted, and
    added into the gram in ring order by ``np.add.accumulate``.  The
    recurrence acts node by node and each stacked product is computed as it
    would be alone, so every ring keeps the bits it gets alone, and the
    ring-ordered sum keeps the gram's bits too.
    """
    radii, angles, dr, dphi = grid.nodes(r_max)
    gram = np.zeros((n_rows, n_rows), dtype=complex)
    per_block = max(1, _GRAM_BLOCK_ELEMENTS // (n_rows * len(angles)))
    per_stack = max(1, _GRAM_BLOCK_ELEMENTS // (n_rows * n_rows))
    phases = np.exp(1j * angles)
    for lo in range(0, len(radii), per_block):
        block = radii[lo : lo + per_block]
        rings = _ladder_amplitudes(block[:, None] * phases, spec.r, n_rows).transpose(1, 0, 2)
        for first in range(0, len(block), per_stack):
            stack = rings[first : first + per_stack]
            products = np.matmul(stack, stack.conj().transpose(0, 2, 1))
            products *= (block[first : first + per_stack] * dr * dphi)[:, None, None]
            products[0] += gram
            gram = np.add.accumulate(products, axis=0)[-1]
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
    must shrink it.  The ladder recurrence and the ring products run over
    blocks of rings, and the rings are summed in order of radius, so the
    result has the same bits as a ring-by-ring evaluation.
    """
    if dim_check < 1:
        raise ValueError(f"dim_check must be >= 1, got {dim_check}")
    grid = grid or QuadratureGrid()
    r_max = grid.r_max if grid.r_max is not None else math.sqrt(2.0 * dim_check) + 5.0
    gram = _family_gram(spec, dim_check + 1, grid, r_max)
    return float(np.max(np.abs(gram - np.eye(dim_check + 1))))


def dichotomic_survival_exact(psi0: FockVector, chi_t: float, n_steps: int) -> float:
    """Survival under a yes/no check of psi0 repeated n_steps times.

    Every intermediate outcome is assumed to confirm psi0, so the result
    is s^N with s = |<psi0| U(chi_t/N) |psi0>|^2 / <psi0|psi0>^2.  Frequent
    checking drives this to one, the opposite of the continuous-family
    behaviour.  Build psi0 once with ``displaced_seed`` and pass it to
    every N.
    """
    n_steps = _require_int(n_steps, "n_steps")
    try:
        step = chi_t / n_steps
    except OverflowError:
        raise ValueError(f"n_steps={_int_text(n_steps)} is past the float range, so the "
                         "step time chi_t / n_steps cannot be formed") from None
    stepped = kerr_propagate(psi0, step)
    norm_sq = psi0.norm_sq
    s = abs(complex(np.vdot(psi0.amps, stepped.amps))) ** 2 / (norm_sq * norm_sq)
    return float(s**n_steps)
