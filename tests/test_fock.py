"""Truncated-basis state construction, propagation, moments, and kernels."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrzeno import fock
from kerrzeno.fock import (
    DEFAULT_TAIL_BUDGET,
    FockVector,
    MeasurementSpec,
    QuadratureGrid,
    TruncationError,
    default_dim,
    dichotomic_survival_exact,
    displaced_seed,
    displacement_matrix,
    identity_resolution_defect,
    kerr_propagate,
    mean_a,
    mean_a_closed_form,
    number_moment,
    number_squared_variance,
    squeeze_matrix,
)
from oracles import (
    family_gram, kerr_amps, ladder_amplitudes, mean_a_of, phase_vector, quadrature_mean_cov,
    transition_density, transition_normalization,
)

VACUUM = MeasurementSpec.vacuum()


def dense_quadrature_moments(psi: FockVector):
    """Independent oracle: moments from dense quadrature operator matrices."""
    a = fock._annihilation_matrix(psi.dim)
    q = (a + a.T) / math.sqrt(2.0)
    p = (a - a.T) / (1j * math.sqrt(2.0))
    c = psi.amps

    def ev(op):
        return complex(np.vdot(c, op @ c)).real

    mean = np.array([ev(q), ev(p)])
    cov = np.array(
        [
            [ev(q @ q) - mean[0] ** 2, ev((q @ p + p @ q) / 2.0) - mean[0] * mean[1]],
            [0.0, ev(p @ p) - mean[1] ** 2],
        ]
    )
    cov[1, 0] = cov[0, 1]
    return mean, cov


# --- coherent states ---------------------------------------------------------


def test_coherent_vacuum():
    psi = displaced_seed(VACUUM, 0.0, dim=8)
    np.testing.assert_array_equal(psi.amps[0], 1.0)
    np.testing.assert_array_equal(psi.amps[1:], np.zeros(7))
    assert psi.tail_mass == 0.0


def test_coherent_ground_overlap():
    psi = displaced_seed(VACUUM, 2.0)
    assert abs(abs(psi.amps[0]) ** 2 - math.exp(-4.0)) < 1e-15


def test_coherent_moments_alpha_4():
    psi = displaced_seed(VACUUM, 4.0, dim=160)
    assert abs(number_moment(psi, 1) - 16.0) < 1e-8
    var = number_moment(psi, 2) - number_moment(psi, 1) ** 2
    assert abs(var - 16.0) < 1e-8


def test_coherent_mean_amplitude_contract():
    alpha = 1.5 + 0.5j
    psi = displaced_seed(VACUUM, alpha, dim=60)
    assert abs(number_moment(psi, 1) - abs(alpha) ** 2) < 1e-10 * (1 + abs(alpha) ** 2)
    assert abs(mean_a(psi) - alpha) < 1e-10


def test_coherent_truncation_error_suggests_dim():
    with pytest.raises(TruncationError) as err:
        displaced_seed(VACUUM, 4.0, dim=20)
    assert err.value.required_dim is not None
    psi = displaced_seed(VACUUM, 4.0, dim=err.value.required_dim)
    assert psi.tail_mass <= DEFAULT_TAIL_BUDGET


def test_norm_within_tail_budget():
    for alpha in (0.5, 2.0, 4.0):
        psi = displaced_seed(VACUUM, alpha)
        assert 1.0 - DEFAULT_TAIL_BUDGET <= psi.norm_sq <= 1.0 + 1e-14
        assert psi.tail_mass <= DEFAULT_TAIL_BUDGET


# --- squeezed states -----------------------------------------------------------


def test_squeezed_r0_equals_coherent():
    # closed form of the coherent amplitudes: e^{-|alpha|^2/2} alpha^n / sqrt(n!)
    alpha = 1.3 + 0.4j
    a = displaced_seed(MeasurementSpec(0.0), alpha, dim=70)
    b = [
        math.exp(-abs(alpha) ** 2 / 2.0) * alpha**n / math.sqrt(math.factorial(n))
        for n in range(70)
    ]
    np.testing.assert_allclose(a.amps, b, atol=1e-10)


def test_squeezed_zero_spec_builds_vacuum_family_states():
    alpha = 0.9 - 0.6j
    a = displaced_seed(MeasurementSpec(-0.0), alpha, dim=60)
    b = displaced_seed(MeasurementSpec.vacuum(), alpha, dim=60)
    np.testing.assert_allclose(a.amps, b.amps, atol=1e-12)


def test_squeezed_vacuum_quadrature_variances():
    psi = displaced_seed(MeasurementSpec(0.5), 0.0, dim=60)
    _, cov = dense_quadrature_moments(psi)
    assert abs(cov[0, 0] - math.e / 2.0) < 1e-8
    assert abs(cov[1, 1] - math.exp(-1.0) / 2.0) < 1e-8
    assert abs(cov[0, 1]) < 1e-10


def test_squeezed_vacuum_closed_form_amplitudes():
    # closed form: even amplitudes tanh^m(r) sqrt((2m)!)/(2^m m!) / sqrt(cosh r);
    # the production seed is checked against it, and so is the expm oracle,
    # built oversized so the compared head is free of truncation effects
    r, dim, head = 0.8, 120, 60
    expected = np.zeros(head)
    for m in range(head // 2):
        expected[2 * m] = (
            math.tanh(r) ** m
            * math.sqrt(math.factorial(2 * m))
            / (2**m * math.factorial(m))
            / math.sqrt(math.cosh(r))
        )
    seed = fock._ladder_amplitudes(0.0, r, head)
    np.testing.assert_allclose(seed, expected, atol=1e-14)
    np.testing.assert_allclose(squeeze_matrix(r, dim)[:head, 0], expected, atol=1e-10)


def expm_family_head(alpha: complex, r: float, head: int, big: int) -> np.ndarray:
    """Oracle: D(alpha) S(r)|0> from dense exponentials in an oversized basis."""
    return (displacement_matrix(complex(alpha), big) @ squeeze_matrix(r, big)[:, 0])[:head]


@pytest.mark.parametrize(
    "alpha, r, head, big",
    [
        (0.5 + 0.3j, 0.0, 40, 120),
        (2.0 - 1.0j, 0.8, 60, 200),
        (3.0j, -1.2, 60, 250),
        (-1.0 + 4.0j, 1.5, 60, 300),
        (0.0, 1.3, 60, 250),
    ],
)
def test_ladder_amplitudes_match_expm_oracle(alpha, r, head, big):
    got = fock._ladder_amplitudes(alpha, r, head)
    want = expm_family_head(alpha, r, head, big)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(
    modulus=st.floats(0.0, 6.0),
    phase=st.floats(-math.pi, math.pi),
    r=st.floats(-1.5, 1.5),
)
def test_ladder_amplitudes_property(modulus, phase, r):
    alpha = modulus * complex(math.cos(phase), math.sin(phase))
    got = fock._ladder_amplitudes(alpha, r, 40)
    want = expm_family_head(alpha, r, 40, 300)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# Members whose columns start rescaled (|alpha|^2 > 690: 30, -27 + 5i, 45i)
# or rescale on the way (30 and 45i by row 400), and alpha = 0.
LADDER_ALPHAS = [0.0, 0.5 - 0.2j, 2.0 + 1.0j, 13.0 + 4.0j, 30.0, -27.0 + 5.0j, 45.0j]


def assert_same_amplitudes(got: np.ndarray, want: np.ndarray) -> None:
    """Equal values, and equal bits in every real or imaginary part not zero."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    parts, ref = got.view(float), want.view(float)
    nonzero = ref != 0.0
    assert np.array_equal(parts.view(np.uint64)[nonzero], ref.view(np.uint64)[nonzero])


@pytest.mark.parametrize("r", [0.0, 0.3, -0.3, 1.5, 3.0])
def test_ladder_amplitudes_keep_the_plain_recurrence_bits(r):
    # a 0-d alpha runs on numpy scalars, an array on arrays; each shape is
    # pinned to the plain recurrence on that same shape
    for alpha in LADDER_ALPHAS:
        for n_rows in (1, 11, 400):
            assert_same_amplitudes(
                fock._ladder_amplitudes(alpha, r, n_rows), ladder_amplitudes(alpha, r, n_rows)
            )
    column = np.array(LADDER_ALPHAS)
    rings = np.linspace(0.1, 45.0, 4)[:, None] * np.exp(1j * np.linspace(0.2, 6.2, 16))
    for alpha in (column, rings):
        assert_same_amplitudes(
            fock._ladder_amplitudes(alpha, r, 400), ladder_amplitudes(alpha, r, 400)
        )
    if r == 0.0:
        # r = 0 skips the +-0 terms and row 0's rescale test: rings out to
        # |alpha| = 45, whose columns start shifted from |alpha| = 26.3 on
        # (|alpha|^2 / 2 > log 1e150) and rescale on the way, must still
        # rescale on the oracle's rows
        shifted = np.linspace(20.0, 45.0, 26)[:, None] * np.exp(1j * np.linspace(0.1, 6.1, 9))
        for alpha in (shifted, shifted[-1], 26.4, -45.0j):
            for n_rows in (1, 2, 700):
                assert_same_amplitudes(
                    fock._ladder_amplitudes(alpha, r, n_rows), ladder_amplitudes(alpha, r, n_rows)
                )


def test_large_amplitudes_survive_vacuum_underflow():
    # e^{-|alpha|^2/2} underflows for |alpha|^2 > ~1490, and for strongly
    # squeezed seeds far earlier; the rescaled recurrence still normalizes
    psi = displaced_seed(VACUUM, 40.0)
    assert abs(psi.norm_sq - 1.0) < 1e-10
    assert abs(mean_a(psi) - 40.0) < 1e-8
    alpha, r = 30.0j, 2.0
    psi = displaced_seed(MeasurementSpec(r), alpha)
    assert psi.tail_mass <= DEFAULT_TAIL_BUDGET
    mean, cov = quadrature_mean_cov(psi)
    np.testing.assert_allclose(mean, [0.0, math.sqrt(2.0) * 30.0], atol=1e-8)
    np.testing.assert_allclose(
        cov, 0.5 * np.diag([math.exp(2 * r), math.exp(-2 * r)]), atol=1e-8
    )


def test_squeezed_norm_within_budget():
    psi = displaced_seed(MeasurementSpec(0.8), 3.0, dim=200)
    assert psi.norm_sq >= 1.0 - DEFAULT_TAIL_BUDGET
    assert psi.tail_mass <= DEFAULT_TAIL_BUDGET


def test_displaced_squeezed_moments_match_seed_law():
    alpha, r = 1.2 - 0.7j, 0.4
    psi = displaced_seed(MeasurementSpec(r), alpha, dim=90)
    mean, cov = quadrature_mean_cov(psi)
    np.testing.assert_allclose(
        mean, [math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag], atol=1e-9
    )
    np.testing.assert_allclose(
        cov, 0.5 * np.diag([math.exp(2 * r), math.exp(-2 * r)]), atol=1e-9
    )
    dense_mean, dense_cov = dense_quadrature_moments(psi)
    np.testing.assert_allclose(mean, dense_mean, atol=1e-10)
    np.testing.assert_allclose(cov, dense_cov, atol=1e-10)


def test_squeezed_truncation_error():
    with pytest.raises(TruncationError):
        displaced_seed(MeasurementSpec(1.0), 4.0, dim=30)


def test_squeezed_default_cutoff_reports_its_tail():
    # the default rule gives dim 130 here, which drops 3.8e-7 of the weight,
    # so the default cutoff widens to the smallest one within budget
    spec = MeasurementSpec(1.5)
    assert default_dim(math.sinh(1.5) ** 2, 1.5) == 130
    psi = displaced_seed(spec, 0.0)
    assert psi.dim == 211
    assert psi.tail_mass <= DEFAULT_TAIL_BUDGET
    assert abs(psi.norm_sq + psi.tail_mass - 1.0) < 1e-13
    for dim in (130, psi.dim - 1):
        with pytest.raises(TruncationError, match="need dim >= 211") as err:
            displaced_seed(spec, 0.0, dim=dim)
        assert err.value.required_dim == 211


@pytest.mark.parametrize(
    "alpha, r, rule",
    [
        (2.0, 0.0, 47),
        (2.0, 0.5, 63),
        (0.0, 0.0, 30),
        (1.5 - 0.5j, -0.3, 49),
        (2.0, -0.8, 79),
    ],
)
def test_default_cutoff_is_the_rule_when_it_fits(alpha, r, rule):
    # the rule's cutoff is kept wherever it meets the budget, so every run
    # that fits it keeps its dim and its bytes
    assert default_dim(abs(alpha) ** 2 + math.sinh(r) ** 2, r) == rule
    psi = displaced_seed(MeasurementSpec(r), alpha)
    assert psi.dim == rule
    np.testing.assert_array_equal(psi.amps, fock._ladder_amplitudes(alpha, r, rule))


@pytest.mark.parametrize(
    "alpha, r, need", [(2.0, 0.8, 82), (2.0, 1.2, 158), (0.0, 1.5, 211)]
)
def test_default_cutoff_widens_to_required_dim(alpha, r, need):
    spec = MeasurementSpec(r)
    assert default_dim(abs(alpha) ** 2 + math.sinh(r) ** 2, r) < need
    with pytest.raises(TruncationError) as err:
        displaced_seed(spec, alpha, dim=need - 1)
    assert err.value.required_dim == need
    psi = displaced_seed(spec, alpha)
    assert psi.dim == need
    assert psi.tail_mass <= DEFAULT_TAIL_BUDGET


def test_cutoff_budget_is_checked_before_the_ladder_runs(monkeypatch):
    # a cutoff over 2**20 levels is refused on its estimate; the stand-in
    # ladder fails if it is ever asked for more rows than that
    rows_seen = []

    def ladder(alpha, r, n_rows):
        assert n_rows <= 2**20
        rows_seen.append(n_rows)
        return np.full(n_rows, 1e-4 + 0j)  # weight 1e-8 per row: never within budget

    monkeypatch.setattr(fock, "_ladder_amplitudes", ladder)
    budget = "exceeds the budget of 1048576 levels"
    # the default rule, for revival's alpha = 1e4 and 1e5, and an explicit dim
    for alpha, dim in ((1e4, None), (1e5, None), (2.0, 2**20 + 1)):
        with pytest.raises(TruncationError, match=budget):
            displaced_seed(VACUUM, alpha, dim)
    assert rows_seen == []
    # the widening search stops at the budget, whether it starts from the
    # rule's 47 rows or, for a small explicit dim, from a rule past it
    for alpha, dim in ((2.0, None), (1e4, 50)):
        with pytest.raises(TruncationError, match="no dim up to 1048576 meets it"):
            displaced_seed(VACUUM, alpha, dim)
        assert max(rows_seen) == 2**20
        rows_seen.clear()


@pytest.mark.parametrize(
    "alpha, r, dim",
    [(2e154, 0.0, None), (1e300, 0.0, None), (2.0, 360.0, None), (2.0, 360.0, 10)],
)
def test_overflowing_cutoff_rule_is_refused_before_the_ladder_runs(monkeypatch, alpha, r, dim):
    # |alpha|^2 or sinh(r)^2 leaves the double range: the rule is refused by
    # name, with or without an explicit dim, before any amplitude is computed
    def ladder(*args):
        raise AssertionError("the ladder ran on an overflowing cutoff rule")

    monkeypatch.setattr(fock, "_ladder_amplitudes", ladder)
    with pytest.raises(TruncationError) as err:
        displaced_seed(MeasurementSpec(r), alpha, dim)
    assert str(err.value) == (
        f"the cutoff rule for alpha={complex(alpha)!r}, r={r!r} overflows, far over "
        "the budget of 1048576 levels"
    )


# --- Kerr propagation ------------------------------------------------------------


def test_kerr_full_revival_is_identity():
    psi = displaced_seed(VACUUM, 2.0, dim=60)
    back = kerr_propagate(psi, 2.0 * math.pi)
    np.testing.assert_allclose(back.amps, psi.amps, atol=1e-12)


def test_kerr_zero_time_identity():
    psi = displaced_seed(MeasurementSpec(0.3), 1.0, dim=60)
    np.testing.assert_array_equal(kerr_propagate(psi, 0.0).amps, psi.amps)


def test_kerr_preserves_norm_and_mean_n():
    psi = displaced_seed(VACUUM, 4.0, dim=160)
    for chi_t in (0.01, 0.4, 1.9, 3.0):
        out = kerr_propagate(psi, chi_t)
        assert abs(out.norm_sq - psi.norm_sq) < 1e-14
        assert abs(number_moment(out, 1) - number_moment(psi, 1)) < 1e-10


def test_one_state_readings_refuse_a_stack():
    # summed over the rows, three stacked states would read norm_sq 3 and <n> 12
    psi = displaced_seed(MeasurementSpec(), 2.0)
    stack = kerr_propagate(psi, np.array([0.1, 0.2, 0.3]))
    refusal = rf" takes one state, got amps of shape \(3, {psi.dim}\)$"
    with pytest.raises(ValueError, match="^norm_sq" + refusal):
        stack.norm_sq
    with pytest.raises(ValueError, match="^number_moment" + refusal):
        number_moment(stack, 1)
    assert abs(psi.norm_sq - 1.0) < 1e-12
    assert abs(number_moment(psi, 1) - 4.0) < 1e-10


def test_kerr_rejects_overflowing_phase_without_warnings():
    # chi_t * n**2 overflows at n = 59: refuse before numpy evaluates exp on inf
    psi = displaced_seed(VACUUM, 4.0, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dim=60"):
            kerr_propagate(psi, 1e308)


def test_kerr_rejects_non_finite_chi_t_at_dim_one():
    psi = FockVector(amps=np.array([1.0 + 0j]), dim=1, tail_mass=0.0)
    for chi_t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="dim=1"):
            kerr_propagate(psi, chi_t)


def test_kerr_stack_rows_are_the_single_time_states():
    # one state and k times give k stacked states in one pass; each row, and
    # its <a>, has the bits of one state propagated by a float time, as a
    # float time still gives
    psi = displaced_seed(MeasurementSpec(0.3), 2.0 - 1.0j, dim=60)
    chi_ts = np.array([0.0, -0.0, 0.37, -2.5, math.pi, 1e3])
    stack = kerr_propagate(psi, chi_ts)
    assert (stack.amps.shape, stack.dim, stack.tail_mass) == ((6, 60), 60, psi.tail_mass)
    want = np.array([kerr_amps(psi, chi_t) for chi_t in chi_ts.tolist()])
    for got in (stack.amps, [kerr_propagate(psi, chi_t).amps for chi_t in chi_ts.tolist()]):
        assert np.array_equal(np.array(got).view(np.uint64), want.view(np.uint64))
    want = np.array([mean_a_of(c) for c in want])
    for got in (mean_a(stack), [mean_a(FockVector(c, 60, 0.0)) for c in stack.amps]):
        assert np.array_equal(np.array(got).view(np.uint64), want.view(np.uint64))


def test_kerr_stack_refusal_names_the_first_overflowing_time():
    psi = displaced_seed(VACUUM, 4.0, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"got chi_t=-1e\+307 at dim=60$"):
            kerr_propagate(psi, np.array([0.5, -1e307, 1e308]))
    with pytest.raises(ValueError, match=r"amps must have shape \(3,\) or \(k, 3\)"):
        FockVector(amps=np.zeros((2, 2, 3)), dim=3, tail_mass=0.0)


# --- mean amplitude ---------------------------------------------------------------


def test_mean_a_vacuum_zero():
    assert mean_a(displaced_seed(VACUUM, 0.0, dim=10)) == 0.0


@pytest.mark.parametrize("alpha,dim", [(1.0, 60), (2.0, 80), (4.0, 200)])
def test_mean_a_collapse_revival_curve(alpha, dim):
    psi = displaced_seed(VACUUM, alpha, dim=dim)
    for chi_t in np.linspace(0.0, math.pi, 65):
        exact = mean_a(kerr_propagate(psi, float(chi_t)))
        closed = mean_a_closed_form(alpha, float(chi_t))
        assert abs(exact - closed) < 1e-8


def test_mean_a_closed_form_values():
    assert mean_a_closed_form(2.5 + 1.0j, 0.0) == 2.5 + 1.0j
    assert abs(mean_a_closed_form(3.0, math.pi) - (-3.0)) < 1e-12
    assert abs(mean_a_closed_form(1.0, math.pi / 2) - (-1j * math.exp(-2.0))) < 1e-12
    assert abs(mean_a_closed_form(1.0, math.pi / 2) - (-0.1353352832366127j)) < 1e-12


# --- number moments -----------------------------------------------------------------


def test_number_moments_vacuum():
    psi = displaced_seed(VACUUM, 0.0, dim=10)
    for k in (1, 2, 3, 4):
        assert number_moment(psi, k) == 0.0


def test_number_moments_poisson():
    psi = displaced_seed(VACUUM, 2.0, dim=80)
    assert abs(number_moment(psi, 1) - 4.0) < 1e-10
    assert abs(number_moment(psi, 2) - 20.0) < 1e-9
    # oracle: Poisson <n^4> = mu^4 + 6 mu^3 + 7 mu^2 + mu
    mu = 4.0
    poisson_m4 = mu**4 + 6 * mu**3 + 7 * mu**2 + mu
    assert abs(number_moment(psi, 4) / poisson_m4 - 1.0) < 1e-8
    assert abs(number_squared_variance(psi) - 356.0) < 1e-6


def test_number_moment_rejects_bad_order():
    psi = displaced_seed(VACUUM, 1.0, dim=30)
    for k in (0, 5, -1):
        with pytest.raises(ValueError):
            number_moment(psi, k)


# --- transition density ---------------------------------------------------------------


def test_transition_density_zero_time_overlap_law():
    spec = MeasurementSpec.vacuum()
    rng = np.random.default_rng(3)
    for _ in range(4):
        a_from, a_to = rng.normal(0, 1.5, 2) + 1j * rng.normal(0, 1.5, 2)
        z_from = phase_vector(complex(a_from))
        z_to = phase_vector(complex(a_to))
        got = transition_density(z_from, z_to, 0.0, spec, dim=90)
        want = math.exp(-abs(a_to - a_from) ** 2) / (2.0 * math.pi)
        assert abs(got - want) < 1e-10


def test_transition_density_perfect_overlap():
    spec = MeasurementSpec.vacuum()
    z = phase_vector(1.0 + 0.5j)
    got = transition_density(z, z, 0.0, spec, dim=60)
    assert abs(got - 1.0 / (2.0 * math.pi)) < 1e-12


def test_transition_density_exchange_symmetry():
    spec = MeasurementSpec.vacuum()
    z1 = phase_vector(1.0 + 0.2j)
    z2 = phase_vector(0.4 - 0.9j)
    chi_tau = 0.03
    forward = transition_density(z1, z2, chi_tau, spec, dim=60)
    backward = transition_density(z2, z1, -chi_tau, spec, dim=60)
    assert abs(forward - backward) < 1e-13


def test_transition_density_squeezed_zero_matches_vacuum():
    z1 = phase_vector(0.8 + 0.1j)
    z2 = phase_vector(0.1 - 0.4j)
    a = transition_density(z1, z2, 0.02, MeasurementSpec(0.0), dim=60)
    b = transition_density(z1, z2, 0.02, MeasurementSpec.vacuum(), dim=60)
    assert abs(a - b) < 1e-12


def test_transition_normalization_unit():
    z_from = phase_vector(3.0 + 0.0j)
    total = transition_normalization(
        z_from, 0.005, MeasurementSpec.vacuum(), dim=70
    )
    assert abs(total - 1.0) < 1e-3


# --- identity resolution ------------------------------------------------------------------


def test_identity_defect_vacuum():
    defect = identity_resolution_defect(MeasurementSpec.vacuum(), dim_check=10)
    assert defect < 1e-3


def test_identity_defect_squeezed():
    defect = identity_resolution_defect(MeasurementSpec(0.5), dim_check=10)
    assert defect < 1e-2


def test_identity_defect_degenerate_grid():
    grid = QuadratureGrid(n_r=1, n_phi=1)
    defect = identity_resolution_defect(VACUUM, grid=grid, dim_check=10)
    assert defect > 0.5


def test_identity_defect_validates_dims():
    with pytest.raises(ValueError, match="dim_check must be >= 1"):
        identity_resolution_defect(MeasurementSpec.vacuum(), dim_check=0)


def ring_by_ring_gram(spec, n_rows, grid, r_max, ladder=fock._ladder_amplitudes):
    """Reference: the ladder run on one ring at a time, summed in ring order."""
    radii, angles, dr, dphi = grid.nodes(r_max)
    gram = np.zeros((n_rows, n_rows), dtype=complex)
    for rho in radii:
        ring = ladder(rho * np.exp(1j * angles), spec.r, n_rows)
        gram += (rho * dr * dphi) * (ring @ ring.conj().T)
    return gram / math.pi


@pytest.mark.parametrize(
    "r, n_rows, grid, per_block",
    [
        (0.0, 11, QuadratureGrid(n_r=160, n_phi=128), 46),  # 160 = 3 * 46 + 22
        (0.5, 11, QuadratureGrid(n_r=50, n_phi=128), 46),
        (-1.2, 11, QuadratureGrid(n_r=50, n_phi=128), 46),
        (0.5, 11, QuadratureGrid(n_r=3, n_phi=6000), 1),  # one ring alone is over budget
        (0.0, 70, QuadratureGrid(n_r=20, n_phi=64), 14),  # transition_normalization's rows
    ],
)
def test_family_gram_blocks_keep_ring_by_ring_bits(r, n_rows, grid, per_block):
    assert max(1, fock._GRAM_BLOCK_ELEMENTS // (n_rows * grid.n_phi)) == per_block
    spec = MeasurementSpec(r)
    blocked = fock._family_gram(spec, n_rows, grid, 9.5)
    assert np.array_equal(blocked, ring_by_ring_gram(spec, n_rows, grid, 9.5))


@pytest.mark.parametrize("r_max", [9.5, 45.0])
def test_family_gram_at_r0_is_the_plain_ladder_ring_by_ring(r_max):
    # the r = 0 ladder, without its +-0 terms and row 0's rescale test, gives
    # the gram of the plain recurrence run ring by ring; out to r_max = 45 its
    # outer columns start shifted and rescale
    spec, grid = MeasurementSpec(0.0), QuadratureGrid(n_r=120, n_phi=32)
    gram = fock._family_gram(spec, 11, grid, r_max)
    assert np.array_equal(gram, ring_by_ring_gram(spec, 11, grid, r_max))
    assert np.array_equal(gram, ring_by_ring_gram(spec, 11, grid, r_max, ladder_amplitudes))


@pytest.mark.parametrize("r", [0.0, 0.3, -0.7, 1.2])
@pytest.mark.parametrize(
    "n_rows, n_r, n_phi, r_max",
    [
        (2, 40000, 1, 9.4),  # 32768 rings a block, 16384 products a stack
        (102, 300, 1, 45.0),  # 642 rings a block, 6 products a stack
        (5, 3000, 2, 45.0),
        (11, 500, 3, 9.4),
        (41, 7, 64, 9.4),
        (2, 1, 1, 45.0),
        (11, 33, 5, 45.0),
        (11, 160, 128, 9.4),
    ],
)
def test_family_gram_matches_the_per_ring_loop(r, n_rows, n_r, n_phi, r_max):
    spec, grid = MeasurementSpec(r), QuadratureGrid(n_r=n_r, n_phi=n_phi)
    assert np.array_equal(
        fock._family_gram(spec, n_rows, grid, r_max), family_gram(spec, n_rows, grid, r_max)
    )


# --- dichotomic survival -----------------------------------------------------------------------


def test_dichotomic_survival_zero_time():
    psi0 = displaced_seed(VACUUM, 2.0)
    assert dichotomic_survival_exact(psi0, 0.0, 5) == 1.0
    for n_steps in (0, 2.5, float("nan")):
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            dichotomic_survival_exact(psi0, 0.1, n_steps)


def test_dichotomic_survival_freezes_with_frequency():
    psi0 = displaced_seed(VACUUM, 2.0)
    values = [dichotomic_survival_exact(psi0, 0.1, n) for n in (1, 10, 100, 1000)]
    assert values[0] < values[1] < values[2] < values[3]
    assert values[3] > 0.99


def test_dichotomic_survival_nonincreasing_in_time():
    psi0 = displaced_seed(VACUUM, 2.0)
    times = (0.001, 0.003, 0.01, 0.03)
    values = [dichotomic_survival_exact(psi0, t, 4) for t in times]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_dichotomic_survival_respects_gaussian_bound():
    psi0 = displaced_seed(VACUUM, 2.0)
    var_n2 = number_squared_variance(psi0)
    chi_t = 0.1
    for n in (1, 10, 100, 1000):
        survival = dichotomic_survival_exact(psi0, chi_t, n)
        bound = math.exp(-var_n2 * chi_t**2 / n)
        assert survival >= bound * (1.0 - 1e-9)


# --- value types ---------------------------------------------------------------------------------


def test_measurement_spec_validation():
    for r in (math.nan, 800.0, -800.0):
        with pytest.raises(ValueError):
            MeasurementSpec(r)


def test_fock_vector_validation():
    with pytest.raises(ValueError):
        FockVector(amps=np.zeros(3, dtype=complex), dim=4, tail_mass=0.0)
    with pytest.raises(ValueError):
        FockVector(amps=np.array([np.nan + 0j]), dim=1, tail_mass=0.0)


def test_default_dim_rule():
    assert default_dim(0.0) == 30
    assert default_dim(16.0) == math.ceil(16.0 + 10.0 * math.sqrt(17.0) + 20.0)
    with pytest.raises(ValueError):
        default_dim(-1.0)
