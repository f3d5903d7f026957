"""
Two-outcome measurement model with tunable element overlap.

A qubit starts in |1> and Rabi-oscillates under H = omega * sigma_x while
being checked N times by the two-element POVM

    E_1 = diag(cos^2 a, 0),    E_2 = diag(sin^2 a, 1),

whose overlap tr(E_1 E_2) = sin^2(2a)/4 is set by the angle ``a``.  After
outcome k the state is reset to the fixed reduced state rho_k, so the
outcome sequence is a two-state Markov chain with column-stochastic
transition matrix T, and the probability that every check returns outcome
1 is (T^N)_{1,1}.

For a = 0 the elements are orthogonal projectors and frequent checking
freezes the qubit (survival -> 1).  Any overlap caps the survival at
cos^2(a)/2 no matter how frequent the checks; letting the overlap shrink
with N as a = c / N^beta puts the crossover between the two behaviours at
beta = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TwoLevelModel",
    "povm_elements",
    "povm_overlap",
    "reduced_states",
    "evolution_operator",
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
    """Overlap angle, Rabi rate, step duration, and number of checks."""

    alpha: float
    omega: float
    tau: float
    n_steps: int

    def __post_init__(self) -> None:
        _require_angle(self.alpha)
        if not (math.isfinite(self.omega) and math.isfinite(self.tau)):
            raise ValueError("omega and tau must be finite")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")


def povm_elements(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The two measurement elements; the second is built as the exact
    complement so completeness holds to the last bit."""
    e1 = np.diag([math.cos(alpha) ** 2, 0.0])
    return e1, np.eye(2) - e1


def povm_overlap(alpha: float) -> float:
    """tr(E_1 E_2) = sin^2(2 alpha) / 4; zero only for orthogonal elements."""
    return 0.25 * math.sin(2.0 * alpha) ** 2


def reduced_states(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Post-measurement states for outcomes 1 and 2 (rho_1 = |1><1|)."""
    sa = math.sin(alpha) ** 2
    rho1 = np.diag([1.0, 0.0])
    rho2 = np.diag([sa, 1.0]) / (1.0 + sa)
    return rho1, rho2


def evolution_operator(omega: float, tau: float) -> np.ndarray:
    """U(tau) = exp(-i omega tau sigma_x)."""
    c, s = math.cos(omega * tau), math.sin(omega * tau)
    return np.array([[c, -1j * s], [-1j * s, c]])


def transition_matrix(model: TwoLevelModel) -> np.ndarray:
    """Column-stochastic outcome chain T[j, k] = p(j | k).

    Entries are the closed forms of tr[E_j U rho_k U^dag]; the test-suite
    re-derives them from the explicit matrices.
    """
    ca, sa = math.cos(model.alpha) ** 2, math.sin(model.alpha) ** 2
    c2, s2 = math.cos(model.omega * model.tau) ** 2, math.sin(model.omega * model.tau) ** 2
    return np.array(
        [
            [ca * c2, ca * (c2 * sa + s2) / (1.0 + sa)],
            [sa * c2 + s2, (c2 * (1.0 + sa * sa) + 2.0 * sa * s2) / (1.0 + sa)],
        ]
    )


def survival_exact(model: TwoLevelModel) -> float:
    """(T^N)_{1,1}: probability that all N checks return outcome 1."""
    t_n = np.linalg.matrix_power(transition_matrix(model), model.n_steps)
    return float(t_n[0, 0])


def survival_closed_form(model: TwoLevelModel) -> float:
    """Spectral form of the survival probability,

        cos^2(a)/2 + (1 - cos^2(a)/2) * [cos^2(a) cos(2 w tau) / (2 - cos^2(a))]^N.

    The bracket is the second eigenvalue of T; it may be negative (when
    cos(2 w tau) < 0), making the survival oscillate in N while converging
    to the same cos^2(a)/2 limit.
    """
    ca = math.cos(model.alpha) ** 2
    ratio = ca * math.cos(2.0 * model.omega * model.tau) / (2.0 - ca)
    return ca / 2.0 + (1.0 - ca / 2.0) * ratio**model.n_steps


def survival_asymptotic(alpha: float, omega: float, t: float, n_steps: int) -> float:
    """Many-check small-overlap approximation at fixed total time t:

        (1 + exp(-2 N a^2) exp(-2 w^2 t^2 / N)) / 2.

    Raises ValueError unless 0 <= a <= pi/2; the regime N >> 1, a << 1 is
    advisory.
    """
    _require_angle(alpha)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return 0.5 * (
        1.0
        + math.exp(-2.0 * n_steps * alpha * alpha)
        * math.exp(-2.0 * (omega * t) ** 2 / n_steps)
    )


def scaling_sweep(
    c: float, beta: float, omega: float, t: float, n_list: list[int]
) -> list[tuple[int, float]]:
    """Survival along alpha(N) = c / N^beta at fixed total time t.

    Overlap shrinking faster than 1/sqrt(N) restores freezing (survival
    -> 1); slower decay leaves it pinned near 1/2.  Raises if any alpha(N)
    leaves [0, pi/2], naming that N.
    """
    out: list[tuple[int, float]] = []
    for n in n_list:
        if n < 1:
            raise ValueError("entries of n_list must be >= 1")
        alpha_n = c / float(n) ** beta
        _require_angle(alpha_n, f"alpha(N={n})")
        model = TwoLevelModel(alpha=alpha_n, omega=omega, tau=t / n, n_steps=n)
        out.append((int(n), survival_closed_form(model)))
    return out
