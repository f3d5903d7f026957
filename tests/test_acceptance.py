"""End-to-end acceptance runs for the package's headline claims.

Each test prints one ``[ACCEPTANCE] ...`` PASS/FAIL line (run pytest with
``-s`` to watch them).

Criterion 1 was first stated as |Re<a>| < 0.05 throughout chi_t in
[0.3, 2.8] for alpha = 4.  The closed form of the Kerr collapse rules that
out: under exp(-i chi_t n^2) a coherent state has

    |<a>| = |alpha| exp(-2 |alpha|^2 sin^2 chi_t)

(Yurke & Stoler, PRL 57, 13 (1986); Milburn, PRA 33, 674 (1986)), which is
4 exp(-32 sin^2 0.30) ~ 0.245 at the left edge.  The envelope falls below
0.05 only on [chi_c, pi - chi_c] with

    chi_c = arcsin(sqrt(ln(|alpha| / 0.05) / (2 |alpha|^2))) ~ 0.3791,

i.e. about [0.379, 2.763]; holding the flat bound on all of [0.3, 2.8]
would need |alpha| >~ 5.15.  So ``test_criterion_1_collapse_window`` keeps
the stated inputs and window but asserts what the closed form promises:
the exact curve stays under the envelope at every point of the window, and
under 0.05 where the envelope is.
"""

import io
import math
import time

import numpy as np
import pytest

from kerrzeno.experiments import run_experiment, validate_config, write_csv
from kerrzeno.fock import (
    MeasurementSpec,
    dichotomic_survival_exact,
    displaced_seed,
    identity_resolution_defect,
    kerr_propagate,
    number_squared_variance,
)
from kerrzeno.observed import (
    ObservedRunConfig,
    analytic_final_distribution,
    run_ensemble,
    survival_density_continuous,
)
from kerrzeno.phase_space import (
    EvolutionParams,
    PhaseVector,
    accumulate_covariance,
    rotation_matrix,
    step_covariance,
)
from kerrzeno.two_level import (
    TwoLevelModel,
    scaling_sweep,
    survival_closed_form,
    survival_exact,
    transition_matrix,
)
from oracles import (
    chain_convolution_check, det_cn_asymptotic, phase_vector, povm_elements, rs_uncertainty_check,
    seed_covariance,
)


def _report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {label}: {status}{suffix}")


def _revival_envelope():
    config, errors = validate_config(
        {
            "experiment": "revival",
            "parameters": {"alpha": 4.0, "n_points": 512, "dim": 200},
        }
    )
    assert errors == []
    return run_experiment(config)


def test_criterion_1_revival_curve():
    """Revival point, exact-vs-closed agreement, and runtime."""
    envelope = _revival_envelope()
    rows = np.asarray(envelope.rows)
    worst_gap = float(np.max(np.abs(rows[:, 1] - rows[:, 2])))
    at_pi = rows[np.argmin(np.abs(rows[:, 0] - math.pi))]
    revival_err = abs(at_pi[1] - (-4.0))
    ok = (
        worst_gap < 1e-8 and revival_err < 1e-6 and envelope.wall_time_s < 10.0
    )
    _report(
        "criterion 1 revival curve",
        ok,
        f"max |exact-closed| = {worst_gap:.2e}, Re<a>(pi) error = {revival_err:.2e}, "
        f"runtime = {envelope.wall_time_s:.2f}s",
    )
    assert worst_gap < 1e-8
    assert revival_err < 1e-6
    assert envelope.wall_time_s < 10.0


def test_criterion_1_collapse_window():
    """<a> collapses across chi_t in [0.3, 2.8] for alpha = 4.

    The original target, |Re<a>| < 0.05 on the whole window, is ruled out
    by the closed-form envelope |alpha| exp(-2 |alpha|^2 sin^2 chi_t), which
    is ~0.245 at chi_t = 0.3.  The test asserts instead (a) that the exact
    curve stays under that envelope at every grid point of the window, and
    (b) that |Re<a>| < 0.05 on the part of the window where the envelope
    is below 0.05, [chi_c, pi - chi_c], whose edges must fall inside the
    window.  Envelope and chi_c come from the formula, not from the
    program's closed-form column.
    """
    alpha, bound, lo, hi = 4.0, 0.05, 0.3, 2.8
    envelope = _revival_envelope()
    rows = np.asarray(envelope.rows)
    window = rows[(rows[:, 0] >= lo) & (rows[:, 0] <= hi)]
    chi_t, abs_re = window[:, 0], np.abs(window[:, 1])

    collapse = alpha * np.exp(-2.0 * alpha**2 * np.sin(chi_t) ** 2)
    excess = float(np.max(abs_re - collapse))

    chi_c = math.asin(math.sqrt(math.log(alpha / bound) / (2.0 * alpha**2)))
    inner = (chi_t >= chi_c) & (chi_t <= math.pi - chi_c)
    worst_inner = float(np.max(abs_re[inner]))

    ok = (
        excess <= 1e-10
        and lo < chi_c < math.pi - chi_c < hi
        and worst_inner < bound
    )
    _report(
        f"criterion 1 collapse window [{lo}, {hi}]",
        ok,
        f"max |Re<a>| - envelope = {excess:.2e}, "
        f"edges [chi_c, pi - chi_c] = [{chi_c:.4f}, {math.pi - chi_c:.4f}], "
        f"max |Re<a>| there = {worst_inner:.4f}, target < {bound}",
    )
    assert excess <= 1e-10
    assert lo < chi_c < math.pi - chi_c < hi
    assert worst_inner < bound


def test_criterion_1_collapse_window_attained():
    """The window on which the 0.05 bound actually holds.

    The edges 0.38 and 2.76 sit just inside the analytic window
    [chi_c, pi - chi_c] = [0.3791, 2.7625] on which the collapse envelope
    |alpha| exp(-2 |alpha|^2 sin^2 chi_t) is below 0.05 for alpha = 4
    (see the module docstring).
    """
    envelope = _revival_envelope()
    rows = np.asarray(envelope.rows)
    window = rows[(rows[:, 0] >= 0.38) & (rows[:, 0] <= 2.76)]
    worst = float(np.max(np.abs(window[:, 1])))
    _report(
        "criterion 1 collapse window [0.38, 2.76]",
        worst < 0.05,
        f"max |Re<a>| = {worst:.4f}",
    )
    assert worst < 0.05


def test_criterion_2_covariance_laws():
    worst_identity = 0.0
    for n in range(1, 1001):
        c_n = accumulate_covariance(np.eye(2), 0.37, n)
        worst_identity = max(
            worst_identity, float(np.max(np.abs(c_n - n * np.eye(2))))
        )
    theta = 0.01
    c_500 = accumulate_covariance(step_covariance(0.5, theta), theta, 500)
    ratio = math.sqrt(np.linalg.det(c_500)) / det_cn_asymptotic(0.5, 500)
    ok = worst_identity < 1e-12 and 0.95 <= ratio <= 1.05
    _report(
        "criterion 2 covariance laws",
        ok,
        f"max |C_N - N I| = {worst_identity:.2e}, sqrt(det)/asymptote = {ratio:.4f}",
    )
    assert worst_identity < 1e-12
    assert 0.95 <= ratio <= 1.05


def test_criterion_3_final_distribution_desk_scale():
    start = time.perf_counter()
    defects = {}
    stats = {}
    for r in (0.0, 0.5):
        spec = MeasurementSpec(r)
        cfg = ObservedRunConfig(
            z0=phase_vector(3.0 + 0.0j),
            params=EvolutionParams(chi=0.1, n_bar=1.0, tau=1.0, n_steps=2),
            spec=spec,
            n_trajectories=100_000,
            master_seed=20_24,
        )
        assert abs(cfg.params.theta - 0.2) < 1e-15
        defects[r] = chain_convolution_check(cfg)
        finals = run_ensemble(cfg)
        target = analytic_final_distribution(cfg)
        n = cfg.n_trajectories
        mean_err = float(np.linalg.norm(finals.mean(axis=0) - target.mean.as_array()))
        mean_lim = 4.0 * math.sqrt(float(np.trace(target.cov)) / n)
        sample_cov = np.cov(finals.T, ddof=1)
        diag = np.diag(target.cov)
        se = np.sqrt((np.outer(diag, diag) + target.cov**2) / n)
        cov_dev = float(np.max(np.abs(sample_cov - target.cov) / se))
        stats[r] = (mean_err, mean_lim, cov_dev)
    elapsed = time.perf_counter() - start
    ok = (
        all(d < 1e-3 for d in defects.values())
        and all(m < lim and c < 5.0 for m, lim, c in stats.values())
        and elapsed < 60.0
    )
    _report(
        "criterion 3 final distribution",
        ok,
        f"defects = {defects[0.0]:.1e}/{defects[0.5]:.1e}, "
        f"cov devs = {stats[0.0][2]:.2f}/{stats[0.5][2]:.2f} SE, "
        f"runtime = {elapsed:.1f}s",
    )
    for r in (0.0, 0.5):
        assert defects[r] < 1e-3
        mean_err, mean_lim, cov_dev = stats[r]
        assert mean_err < mean_lim
        assert cov_dev < 5.0
    assert elapsed < 60.0


def test_criterion_4_zeno_contrast():
    worst = 0.0
    for n in range(1, 1001):
        # theta = omega tau with omega = 1, vacuum seed
        density = survival_density_continuous(PhaseVector(2.0, 0.0), 0.0, 2.0 * math.pi / n, n)
        product = n * density * 2.0 * math.pi
        worst = max(worst, abs(product - 1.0))

    psi0 = displaced_seed(MeasurementSpec.vacuum(), 2.0)
    chi_t = 0.1
    survivals = {
        n: dichotomic_survival_exact(psi0, chi_t, n) for n in (1, 10, 100, 1000)
    }
    var_n2 = number_squared_variance(psi0)
    bound_ok = all(
        survivals[n] >= math.exp(-var_n2 * chi_t**2 / n) * (1.0 - 1e-9)
        for n in (100, 1000)
    )
    monotone = survivals[1] < survivals[10] < survivals[100]
    ok = worst < 1e-12 and monotone and survivals[1000] > 0.99 and bound_ok
    _report(
        "criterion 4 zeno contrast",
        ok,
        f"max |2 pi N p - 1| = {worst:.1e}, dichotomic({{1,10,100,1000}}) = "
        + "/".join(f"{survivals[n]:.4f}" for n in (1, 10, 100, 1000)),
    )
    assert worst < 1e-12
    assert monotone
    assert survivals[1000] > 0.99
    assert bound_ok


def test_criterion_5_two_level_model():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(1000):
        model = TwoLevelModel(
            alpha=float(rng.uniform(0.0, math.pi / 2)),
            omega_tau=float(rng.uniform(0.0, math.pi)),
            n_steps=int(rng.integers(1, 201)),
        )
        worst = max(worst, abs(survival_exact(model) - survival_closed_form(model)))

    limit_model = TwoLevelModel(0.4, 1.0 / 10_000, 10_000)
    limit_gap = abs(survival_closed_form(limit_model) - math.cos(0.4) ** 2 / 2.0)

    n_list = [10**k for k in range(7)]
    fast = scaling_sweep(1.0, 1.0, 1.0, n_list)[-1][2]
    slow = scaling_sweep(1.0, 0.25, 1.0, n_list)[-1][2]
    elapsed = time.perf_counter() - start
    ok = (
        worst < 1e-12
        and limit_gap < 1e-3
        and abs(fast - 1.0) < 1e-2
        and abs(slow - 0.5) < 1e-2
        and elapsed < 5.0
    )
    _report(
        "criterion 5 two-level model",
        ok,
        f"max |power - closed| = {worst:.1e}, limit gap = {limit_gap:.1e}, "
        f"sweep ends = {fast:.4f}/{slow:.4f}, runtime = {elapsed:.2f}s",
    )
    assert worst < 1e-12
    assert limit_gap < 1e-3
    assert abs(fast - 1.0) < 1e-2
    assert abs(slow - 0.5) < 1e-2
    assert elapsed < 5.0


@pytest.mark.parametrize("r", [0.0, 0.5])
def test_criterion_6_identity_resolution(r):
    from kerrzeno.fock import QuadratureGrid

    spec = MeasurementSpec(r)
    base = identity_resolution_defect(spec, dim_check=10)
    doubled = identity_resolution_defect(
        spec, grid=QuadratureGrid().doubled(), dim_check=10
    )
    ok = base < 1e-3 and doubled < base
    _report(
        f"criterion 6 identity resolution (r = {r})",
        ok,
        f"defect = {base:.2e}, doubled grid = {doubled:.2e}",
    )
    assert base < 1e-3
    assert doubled < base


def test_criterion_7_property_suite():
    # rotations: orthogonal, unit determinant, semigroup
    rotations_ok = True
    for theta in np.linspace(-8.0, 8.0, 41):
        m = rotation_matrix(float(theta))
        rotations_ok &= bool(np.allclose(m.T @ m, np.eye(2), atol=1e-12))
        rotations_ok &= abs(float(np.linalg.det(m)) - 1.0) < 1e-12
        m2 = rotation_matrix(float(theta) / 3.0)
        rotations_ok &= bool(
            np.allclose(m2 @ rotation_matrix(2.0 * float(theta) / 3.0), m, atol=1e-12)
        )

    # POVM completeness and chain stochasticity
    povm_ok = True
    for alpha in np.linspace(0.0, math.pi / 2, 11):
        e1, e2 = povm_elements(float(alpha))
        povm_ok &= bool(np.array_equal(e1 + e2, np.eye(2)))
        t = transition_matrix(TwoLevelModel(float(alpha), 0.37, 1))
        povm_ok &= bool(np.allclose(t.sum(axis=0), 1.0, atol=1e-12))

    # Kerr propagation preserves the norm exactly
    psi = displaced_seed(MeasurementSpec.vacuum(), 3.0, dim=120)
    kerr_ok = all(
        abs(kerr_propagate(psi, chi_t).norm_sq - psi.norm_sq) < 1e-14
        for chi_t in (0.01, 0.7, 2.9)
    )

    # every produced covariance respects det >= 1/4
    rs_ok = True
    for r in (-0.8, 0.0, 0.6):
        rs_ok &= rs_uncertainty_check(seed_covariance(r)).ok
        for theta in (0.0, 0.2, 1.1):
            c1 = step_covariance(r, theta)
            rs_ok &= rs_uncertainty_check(c1).ok
            for n in (1, 7, 40):
                rs_ok &= rs_uncertainty_check(
                    accumulate_covariance(c1, theta, n)
                ).ok

    # seeded reruns are byte-identical
    cfg = ObservedRunConfig(
        z0=PhaseVector(2.0, -1.0),
        params=EvolutionParams(0.05, 4.0, 0.5, 6),
        spec=MeasurementSpec(0.3),
        n_trajectories=2000,
        master_seed=123,
    )
    determinism_ok = bool(np.array_equal(run_ensemble(cfg), run_ensemble(cfg)))
    config, errors = validate_config(
        {
            "experiment": "trajectories",
            "master_seed": 6,
            "parameters": {"n_trajectories": 200, "n_steps": 4},
        }
    )
    assert errors == []
    buffers = []
    for _ in range(2):
        buf = io.StringIO()
        write_csv(run_experiment(config), buf)
        buffers.append(buf.getvalue().encode())
    determinism_ok &= buffers[0] == buffers[1]

    ok = rotations_ok and povm_ok and kerr_ok and rs_ok and determinism_ok
    _report(
        "criterion 7 property suite",
        ok,
        f"rotations={rotations_ok}, povm={povm_ok}, kerr={kerr_ok}, "
        f"uncertainty={rs_ok}, determinism={determinism_ok}",
    )
    assert rotations_ok
    assert povm_ok
    assert kerr_ok
    assert rs_ok
    assert determinism_ok
