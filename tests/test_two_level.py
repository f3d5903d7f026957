"""Two-outcome overlap model: chain stochasticity and survival laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrzeno.two_level import (
    TwoLevelModel,
    scaling_sweep,
    survival_asymptotic,
    survival_closed_form,
    survival_exact,
    transition_matrix,
)
from oracles import evolution_operator, povm_elements, povm_overlap, reduced_states

alphas = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)


def transition_matrix_from_operators(alpha: float, omega_tau: float) -> np.ndarray:
    """Oracle: assemble p(j|k) = tr[E_j U rho_k U^dag] from explicit matrices."""
    e1, e2 = (m.astype(complex) for m in povm_elements(alpha))
    rho1, rho2 = (m.astype(complex) for m in reduced_states(alpha))
    u = evolution_operator(1.0, omega_tau)
    t = np.empty((2, 2))
    for j, element in enumerate((e1, e2)):
        for k, rho in enumerate((rho1, rho2)):
            t[j, k] = np.trace(element @ u @ rho @ u.conj().T).real
    return t


# --- POVM ----------------------------------------------------------------


def test_povm_overlap_values():
    assert povm_overlap(0.0) == 0.0
    assert abs(povm_overlap(math.pi / 4) - 0.25) < 1e-15


@settings(max_examples=60, deadline=None)
@given(alpha=alphas)
def test_povm_completeness_and_positivity(alpha):
    e1, e2 = povm_elements(alpha)
    np.testing.assert_array_equal(e1 + e2, np.eye(2))
    assert np.all(np.linalg.eigvalsh(e1) >= -1e-15)
    assert np.all(np.linalg.eigvalsh(e2) >= -1e-15)


@settings(max_examples=60, deadline=None)
@given(alpha=alphas)
def test_povm_overlap_matches_trace(alpha):
    e1, e2 = povm_elements(alpha)
    assert abs(povm_overlap(alpha) - np.trace(e1 @ e2)) < 1e-14


def test_reduced_states_are_normalized():
    for alpha in (0.0, 0.3, 1.2):
        rho1, rho2 = reduced_states(alpha)
        assert abs(np.trace(rho1) - 1.0) < 1e-15
        assert abs(np.trace(rho2) - 1.0) < 1e-15


# --- transition matrix ------------------------------------------------------


def test_transition_matrix_orthogonal_projectors():
    t = transition_matrix(TwoLevelModel(0.0, 1.0, math.pi / 4, 1))
    assert abs(t[0, 0] - 0.5) < 1e-15


def test_transition_matrix_degenerate_first_element():
    t = transition_matrix(TwoLevelModel(math.pi / 2, 1.0, 0.7, 1))
    assert abs(t[0, 0]) < 1e-15
    assert abs(t[0, 1]) < 1e-15


def test_transition_matrix_against_operator_oracle():
    for alpha in np.linspace(0.0, math.pi / 2, 7):
        for omega_tau in np.linspace(0.0, math.pi, 9):
            got = transition_matrix(TwoLevelModel(float(alpha), 1.0, float(omega_tau), 1))
            want = transition_matrix_from_operators(float(alpha), float(omega_tau))
            np.testing.assert_allclose(got, want, atol=1e-14)


@settings(max_examples=80, deadline=None)
@given(alpha=alphas, omega_tau=phases)
def test_transition_matrix_column_stochastic(alpha, omega_tau):
    t = transition_matrix(TwoLevelModel(alpha, 1.0, omega_tau, 1))
    np.testing.assert_allclose(t.sum(axis=0), [1.0, 1.0], atol=1e-12)
    assert np.all(t >= -1e-15)
    assert np.all(t <= 1.0 + 1e-15)


# --- survival ------------------------------------------------------------------


def test_survival_single_step_is_first_entry():
    model = TwoLevelModel(0.4, 1.0, 0.3, 1)
    expected = math.cos(0.4) ** 2 * math.cos(0.3) ** 2
    assert abs(survival_exact(model) - expected) < 1e-15
    assert abs(survival_closed_form(model) - expected) < 1e-15


def test_survival_exact_matches_closed_form_everywhere():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        model = TwoLevelModel(
            alpha=float(rng.uniform(0.0, math.pi / 2)),
            omega=1.0,
            tau=float(rng.uniform(0.0, math.pi)),
            n_steps=int(rng.integers(1, 201)),
        )
        worst = max(worst, abs(survival_exact(model) - survival_closed_form(model)))
    assert worst < 1e-12


def test_survival_commuting_checks_stay_at_one():
    for k in (1, 2, 5):
        for n in (1, 3, 50):
            model = TwoLevelModel(0.0, 1.0, k * math.pi, n)
            assert abs(survival_exact(model) - 1.0) < 1e-12


def test_survival_overlap_limit():
    alpha, t = 0.7, 1.0
    limit = math.cos(alpha) ** 2 / 2.0
    p_large = survival_closed_form(TwoLevelModel(alpha, 1.0, t / 10_000, 10_000))
    assert abs(p_large - limit) < 1e-6
    # bounded away from one, uniformly over N
    for n in (1, 5, 20, 100, 2000):
        value = survival_exact(TwoLevelModel(alpha, 1.0, t / n, n))
        assert value < 0.9


def test_survival_zeno_limit_without_overlap():
    t = 1.0
    values = [
        survival_closed_form(TwoLevelModel(0.0, 1.0, t / n, n))
        for n in (1, 10, 100, 1000, 10000)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] > 0.999


def test_survival_oscillating_branch_converges_to_same_limit():
    # cos(2 w tau) < 0 makes the bracket negative: survival rings while
    # settling to the same overlap-capped level
    alpha, omega_tau = 0.5, 1.2
    values = [
        survival_exact(TwoLevelModel(alpha, 1.0, omega_tau, n)) for n in range(1, 12)
    ]
    diffs = np.diff(values)
    assert np.any(diffs > 0) and np.any(diffs < 0)
    far = survival_exact(TwoLevelModel(alpha, 1.0, omega_tau, 400))
    assert abs(far - math.cos(alpha) ** 2 / 2.0) < 1e-6


def test_limit_decreases_with_overlap_angle():
    grid = np.linspace(0.0, math.pi / 2, 25)
    limits = [math.cos(a) ** 2 / 2.0 for a in grid]
    assert all(a > b for a, b in zip(limits, limits[1:]))


# --- asymptotic form ---------------------------------------------------------------


def test_asymptotic_no_overlap_limit():
    assert abs(survival_asymptotic(0.0, 1.0, 1.0, 10**9) - 1.0) < 1e-6


def test_asymptotic_fixed_overlap_budget():
    c = 0.8
    n = 10**8
    value = survival_asymptotic(c / math.sqrt(n), 1.0, 0.0, n)
    assert abs(value - 0.5 * (1.0 + math.exp(-2.0 * c * c))) < 1e-6


def test_asymptotic_matches_closed_form_in_regime():
    n, alpha, t = 10_000, 1e-3, 1.0
    closed = survival_closed_form(TwoLevelModel(alpha, 1.0, t / n, n))
    approx = survival_asymptotic(alpha, 1.0, t, n)
    assert abs(approx - closed) / closed < 1e-2


# --- scaling sweep -------------------------------------------------------------------


def test_sweep_fast_shrink_freezes():
    series = scaling_sweep(1.0, 1.0, 1.0, 1.0, [10**k for k in range(7)])
    assert abs(series[-1][1] - 1.0) < 1e-3


def test_sweep_slow_shrink_stays_half():
    series = scaling_sweep(1.0, 0.25, 1.0, 1.0, [10**k for k in range(7)])
    assert abs(series[-1][1] - 0.5) < 1e-2


def test_sweep_critical_rate():
    c = 1.0
    series = scaling_sweep(c, 0.5, 1.0, 1.0, [10**6])
    expected = 0.5 * (1.0 + math.exp(-2.0 * c * c))
    assert abs(series[0][1] - expected) < 1e-3
    assert 0.5 < series[0][1] < 1.0


def test_sweep_constant_overlap():
    alpha = 0.3
    series = scaling_sweep(alpha, 0.0, 1.0, 1.0, [10**6])
    assert abs(series[0][1] - math.cos(alpha) ** 2 / 2.0) < 1e-6


def test_sweep_rejects_out_of_range_angle():
    with pytest.raises(ValueError, match=r"alpha\(N=1\) must be in \[0, pi/2\]"):
        scaling_sweep(2.0, 0.0, 1.0, 1.0, [1, 10])
    with pytest.raises(ValueError, match=r"alpha\(N=4\) must be in"):
        scaling_sweep(-1.0, 0.5, 1.0, 1.0, [4])


def test_sweep_accepts_quarter_turn():
    # the same rule as TwoLevelModel: alpha(N) = pi/2 is inside [0, pi/2]
    series = scaling_sweep(math.pi / 2, 0.0, 1.0, 1.0, [1, 10])
    assert [n for n, _ in series] == [1, 10]
    for n, survival in series:
        model = TwoLevelModel(math.pi / 2, 1.0, 1.0 / n, n)
        assert survival == survival_closed_form(model)


# --- model validation -----------------------------------------------------------------


@pytest.mark.parametrize("alpha", [2.0, -0.3, float("nan")])
def test_alpha_outside_quarter_turn_rejected(alpha):
    # one rule for the overlap angle, no folding: 0 <= alpha <= pi/2
    with pytest.raises(ValueError, match="alpha must be in"):
        TwoLevelModel(alpha, 1.0, 0.1, 1)
    with pytest.raises(ValueError, match="alpha must be in"):
        survival_asymptotic(alpha, 1.0, 1.0, 10)


@pytest.mark.parametrize("alpha", [0.0, 0.3, math.pi / 2])
def test_alpha_in_quarter_turn_kept(alpha):
    assert TwoLevelModel(alpha, 1.0, 0.1, 1).alpha == alpha


def test_model_validation():
    with pytest.raises(ValueError):
        TwoLevelModel(0.1, 1.0, 0.1, 0)
    with pytest.raises(ValueError):
        TwoLevelModel(float("nan"), 1.0, 0.1, 1)


@pytest.mark.parametrize("n_steps", [4.5, float("inf"), float("nan")])
def test_model_takes_integral_steps_only(n_steps):
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        TwoLevelModel(0.3, 1.0, 0.05, n_steps)
    model = TwoLevelModel(0.3, 1.0, 0.05, 5.0)
    assert type(model.n_steps) is int
    assert survival_exact(model) == survival_exact(TwoLevelModel(0.3, 1.0, 0.05, 5))
