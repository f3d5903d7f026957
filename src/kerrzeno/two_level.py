"""
Two-outcome measurement model with tunable element overlap.

A qubit starts in |1> and Rabi-oscillates under H = omega * sigma_x while
being checked N times by the two-element POVM

    E_1 = diag(cos^2 a, 0),    E_2 = diag(sin^2 a, 1),

whose overlap tr(E_1 E_2) = sin^2(2a)/4 is set by the angle ``a``.  After
outcome k the state is reset to the fixed reduced state rho_k, so the
outcome sequence is a two-state Markov chain with column-stochastic
transition matrix T, and the probability that every check returns outcome
1 is (T^N)_{1,1}, which ``survival_exact`` gives for a whole array of N
with the bits of one ``np.linalg.matrix_power`` per N.

For a = 0 the elements are orthogonal projectors and frequent checking
freezes the qubit (survival -> 1).  Any overlap caps the survival at
cos^2(a)/2 no matter how frequent the checks; letting the overlap shrink
with N as a = c / N^beta puts the crossover between the two behaviours at
beta = 1/2.

Only the Rabi angle per check, omega * tau (omega * t over a run), enters,
so every function takes that one angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_space import _int_text, _require_int

__all__ = [
    "TwoLevelModel",
    "transition_matrix",
    "survival_exact",
    "survival_closed_form",
    "survival_asymptotic",
    "scaling_sweep",
]


def _require_angle(alpha: float, name: str = "alpha") -> None:
    """The overlap angle's one rule: 0 <= alpha <= pi/2 (NaN fails it)."""
    if not 0.0 <= alpha <= math.pi / 2.0:
        raise ValueError(f"{name} must be in [0, pi/2], got {alpha!r}")


@dataclass(frozen=True)
class TwoLevelModel:
    """Overlap angle, Rabi angle omega * tau per check, and number of checks."""

    alpha: float
    omega_tau: float
    n_steps: int

    def __post_init__(self) -> None:
        _require_angle(self.alpha)
        if not math.isfinite(self.omega_tau):
            raise ValueError(f"omega_tau must be finite, got {self.omega_tau!r}")
        object.__setattr__(self, "n_steps", _require_int(self.n_steps, "n_steps"))


def transition_matrix(model: TwoLevelModel) -> np.ndarray:
    """Column-stochastic outcome chain T[j, k] = p(j | k).

    Entries are the closed forms of tr[E_j U rho_k U^dag]; the test-suite
    re-derives them from the explicit matrices.
    """
    ca, sa = math.cos(model.alpha) ** 2, math.sin(model.alpha) ** 2
    c2, s2 = math.cos(model.omega_tau) ** 2, math.sin(model.omega_tau) ** 2
    return np.array(
        [
            [ca * c2, ca * (c2 * sa + s2) / (1.0 + sa)],
            [sa * c2 + s2, (c2 * (1.0 + sa * sa) + 2.0 * sa * s2) / (1.0 + sa)],
        ]
    )


def survival_exact(model: TwoLevelModel, n_steps=None):
    """(T^N)_{1,1}: probability that all N checks return outcome 1.

    A float at N = ``model.n_steps``, or with ``n_steps`` an integer array
    of N (``model.n_steps`` unread), an array of that shape.  Every T^N has
    ``np.linalg.matrix_power``'s bits: its least-significant-bit-first
    decomposition is replayed for all N at once, from one T and the
    squarings z_0 = T, z_{b+1} = z_b @ z_b.  An N's product is z_b at its
    first set bit b and ``product @ z_b`` at each later one, one stacked
    ``np.matmul`` over the N with bit b set (the same BLAS call per matrix),
    and N = 3 takes matrix_power's short-cut (T @ T) @ T.  Raises ValueError
    naming the first N below 1.
    """
    t = transition_matrix(model)
    n = np.asarray(model.n_steps if n_steps is None else n_steps)
    flat = n.reshape(-1)
    if not (counted := flat >= 1).all():
        _require_int(flat[np.argmin(counted)].item(), "n_steps")
    powers = np.empty(flat.shape + (2, 2))
    started = np.zeros(flat.shape, dtype=bool)
    z = t
    for b in range(int(np.max(flat, initial=0)).bit_length()):
        if b:
            z = z @ z
        has = ((flat >> b) & 1).astype(bool)
        powers[has & ~started] = z
        more = np.flatnonzero(has & started)
        powers[more] = powers[more] @ z
        started |= has
        if b == 1:  # matrix_power's short-cut for N = 3
            powers[flat == 3] = z @ t
    survival = powers[:, 0, 0].reshape(n.shape)
    return float(survival) if n_steps is None else survival


def survival_closed_form(model: TwoLevelModel) -> float:
    """Spectral form of the survival probability,

        cos^2(a)/2 + (1 - cos^2(a)/2) * [cos^2(a) cos(2 w tau) / (2 - cos^2(a))]^N.

    The bracket is the second eigenvalue of T; it may be negative (when
    cos(2 w tau) < 0), making the survival oscillate in N while converging
    to the same cos^2(a)/2 limit.  Raises ValueError, naming N, when the
    angle 2 w tau overflows.
    """
    two_omega_tau = 2.0 * model.omega_tau
    if not math.isfinite(two_omega_tau):
        raise ValueError(
            f"the angle 2 omega_tau must be finite, got omega_tau={model.omega_tau!r} "
            f"at N={model.n_steps}"
        )
    ca = math.cos(model.alpha) ** 2
    ratio = ca * math.cos(two_omega_tau) / (2.0 - ca)
    return ca / 2.0 + (1.0 - ca / 2.0) * ratio**model.n_steps


def survival_asymptotic(alpha: float, omega_t: float, n_steps: int) -> float:
    """Many-check small-overlap approximation at fixed Rabi angle w t of the run:

        (1 + exp(-2 N a^2) exp(-2 (w t)^2 / N)) / 2.

    Raises ValueError unless 0 <= a <= pi/2 and N is a positive integer;
    the regime N >> 1, a << 1 is advisory.
    """
    _require_angle(alpha)
    n_steps = _require_int(n_steps, "n_steps")
    try:
        omega_sq = omega_t**2
    except OverflowError:
        # past the double range: 2 (w t)^2 / N is then over 745 for any
        # N below 1e305, so exp(-2 (w t)^2 / N) is exactly 0, as inf gives
        omega_sq = math.inf
    return 0.5 * (
        1.0
        + math.exp(-2.0 * n_steps * alpha * alpha)
        * math.exp(-2.0 * omega_sq / n_steps)
    )


def scaling_sweep(
    c: float, beta: float, omega_t: float, n_list: list[int]
) -> list[tuple[int, float, float]]:
    """(N, alpha(N), survival) along alpha(N) = c / N^beta at fixed w t.

    Overlap shrinking faster than 1/sqrt(N) restores freezing (survival
    -> 1); slower decay leaves it pinned near 1/2.  Raises ValueError,
    naming that N, if any alpha(N) leaves [0, pi/2] or N^beta leaves the
    double range.
    """
    out: list[tuple[int, float, float]] = []
    for n in n_list:
        if n < 1:
            raise ValueError("entries of n_list must be >= 1")
        name = f"alpha(N={_int_text(n)})"
        try:
            alpha_n = c / float(n) ** beta
        except (ZeroDivisionError, OverflowError):
            raise ValueError(f"{name}: N**beta leaves the double range") from None
        _require_angle(alpha_n, name)
        model = TwoLevelModel(alpha_n, omega_t / n, n)
        out.append((int(n), alpha_n, survival_closed_form(model)))
    return out
