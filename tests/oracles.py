"""Reference instruments the tests compare the package against; no experiment
reaches them, so they live here rather than in ``kerrzeno``."""

from __future__ import annotations

import csv
import json
import math
from typing import NamedTuple

import numpy as np

from kerrzeno import experiments
from kerrzeno.fock import (
    _GRAM_BLOCK_ELEMENTS, FockVector, MeasurementSpec, QuadratureGrid, _family_gram,
    _ladder_amplitudes, displaced_seed, kerr_propagate, mean_a, mean_a_closed_form,
    number_moment,
)
from kerrzeno.observed import _RETURN_ANGLE_TOL
from kerrzeno.two_level import (
    TwoLevelModel, survival_asymptotic, survival_closed_form, transition_matrix,
)
from kerrzeno.phase_space import (
    _SYMMETRY_RTOL, GaussianState2D, PhaseVector, _check_covariance, _require_finite,
    _require_int, accumulate_covariance, rotation_matrix, step_covariance,
)

# Saturating pure states may round det to just below 1/4.
_RS_SLACK = 1e-12
# The kernel-chain check convolves on a square grid of this many points per
# axis, whose half-width is this many times the largest standard deviation
# of the final covariance.
_CHAIN_GRID_POINTS = 256
_CHAIN_GRID_HALF_WIDTH_SIGMAS = 6.0


def phase_vector(alpha: complex) -> PhaseVector:
    """The point z = sqrt(2) (Re alpha, Im alpha) of amplitude alpha."""
    return PhaseVector(math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag)


def seed_covariance(r: float) -> np.ndarray:
    """Covariance diag(e^2r, e^-2r)/2 of the measurement seed; det = 1/4."""
    r = _require_finite(r, "r")
    return 0.5 * np.diag([math.exp(2.0 * r), math.exp(-2.0 * r)])


def det_cn_asymptotic(r: float, n: int) -> float:
    """Leading large-n value of sqrt(det C_N): n * cosh(2r).

    Valid when the per-step angle is small while the accumulated angle is
    large (many steps); the exact accumulated sum is the reference it is
    compared against.
    """
    r = _require_finite(r, "r")
    return float(_require_int(n, "n")) * math.cosh(2.0 * r)


def density(state: GaussianState2D, points: np.ndarray) -> np.ndarray | float:
    """Probability density of ``state`` at points with trailing axis (q, p)."""
    pts = np.asarray(points, dtype=float)
    d = pts - state.mean.as_array()
    d0, d1 = d[..., 0], d[..., 1]
    c00, c01, c10, c11 = state.cov.ravel().tolist()
    det = c00 * c11 - c01 * c10
    quad = (c11 * (d0 * d0) - (c01 + c10) * d0 * d1 + c00 * (d1 * d1)) / det
    out = np.exp(-0.5 * quad) / (2.0 * math.pi * np.sqrt(det))
    return float(out) if pts.shape == (2,) else out


def classical_evolve(z0: PhaseVector, omega: float, t: float) -> PhaseVector:
    """Drift of the mean-field amplitude, alpha -> alpha exp(-i omega t): M(omega t) z0."""
    omega, t = _require_finite(omega, "omega"), _require_finite(t, "t")
    return PhaseVector.from_array(rotation_matrix(omega * t) @ z0.as_array())


class UncertaintyCheck(NamedTuple):
    ok: bool
    margin: float


def rs_uncertainty_check(c: np.ndarray) -> UncertaintyCheck:
    """Robertson-Schrodinger test det(c) >= 1/4, with _RS_SLACK, and the signed
    margin; ValueError when c is not a finite symmetric (2, 2) matrix or its
    determinant overflows."""
    c = np.asarray(c, dtype=float)
    if c.shape != (2, 2):
        raise ValueError(f"c must have shape (2, 2), got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("c must have finite entries")
    entries = c.ravel().tolist()
    if abs(entries[1] - entries[2]) > _SYMMETRY_RTOL * max(1.0, *map(abs, entries)):
        raise ValueError("c must be symmetric")
    det = entries[0] * entries[3] - entries[1] * entries[2]
    if not math.isfinite(det):
        scale = max(map(abs, entries))
        raise ValueError(f"2x2 determinant overflows double precision (largest entry {scale:.3e})")
    margin = det - 0.25
    return UncertaintyCheck(ok=margin >= -_RS_SLACK, margin=margin)


def _convolve_same(f: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """FFT linear convolution resampled on the shared centered grid."""
    n, m = f.shape[0], f.shape[0] // 2
    full = np.fft.irfft2(np.fft.rfft2(f, (2 * n, 2 * n)) * np.fft.rfft2(g, (2 * n, 2 * n)))
    return full[m : m + n, m : m + n] * h * h


def chain_convolution_check(cfg, omit_rotation_step: int | None = None) -> float:
    """Peak-normalized largest deviation of the N-step outcome density rebuilt
    by chained quadrature (n_steps <= 3) from the closed-form one.

    The chain runs in co-rotating offsets u = M^-N z - z0, where chained kernel
    j appears rotated by M^j; one step convolves the seed with its rotated
    image.  ``omit_rotation_step = j`` skips kernel j's rotation, a broken-chain
    control that must inflate the defect by orders of magnitude.
    """
    n, theta, r = cfg.params.n_steps, cfg.params.theta, cfg.spec.r
    if n > 3:
        raise ValueError("chain_convolution_check is meant for n_steps <= 3")
    if omit_rotation_step is not None and not 1 <= omit_rotation_step < n:
        raise ValueError("omit_rotation_step must satisfy 1 <= step < n_steps")
    c1 = step_covariance(r, theta)
    c_n = accumulate_covariance(c1, theta, n)
    half_width = _CHAIN_GRID_HALF_WIDTH_SIGMAS * math.sqrt(float(np.max(np.linalg.eigvalsh(c_n))))
    h = 2.0 * half_width / _CHAIN_GRID_POINTS  # index n // 2 holds the origin exactly
    x = (np.arange(_CHAIN_GRID_POINTS) - _CHAIN_GRID_POINTS // 2) * h
    points = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)

    def grid_density(cov: np.ndarray) -> np.ndarray:
        return density(GaussianState2D(PhaseVector(0.0, 0.0), cov), points)

    if n == 1:
        seed, m_inv = seed_covariance(r), rotation_matrix(theta).T
        numeric = _convolve_same(grid_density(m_inv @ seed @ m_inv.T), grid_density(seed), h)
    else:
        numeric = grid_density(c1)
        for j in range(1, n):
            rot = np.eye(2) if omit_rotation_step == j else rotation_matrix(-j * theta)
            numeric = _convolve_same(grid_density(rot @ c1 @ rot.T), numeric, h)
    analytic = grid_density(c_n)
    return float(np.max(np.abs(numeric - analytic)) / np.max(analytic))


def povm_elements(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """E_1 = diag(cos^2 a, 0) and its exact complement, so E_1 + E_2 = I bitwise."""
    e1 = np.diag([math.cos(alpha) ** 2, 0.0])
    return e1, np.eye(2) - e1


def povm_overlap(alpha: float) -> float:
    """tr(E_1 E_2) = sin^2(2 alpha) / 4; zero only for orthogonal elements."""
    return 0.25 * math.sin(2.0 * alpha) ** 2


def reduced_states(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Post-measurement states for outcomes 1 and 2 (rho_1 = |1><1|)."""
    sa = math.sin(alpha) ** 2
    return np.diag([1.0, 0.0]), np.diag([sa, 1.0]) / (1.0 + sa)


def evolution_operator(omega: float, tau: float) -> np.ndarray:
    """U(tau) = exp(-i omega tau sigma_x)."""
    c, s = math.cos(omega * tau), math.sin(omega * tau)
    return np.array([[c, -1j * s], [-1j * s, c]])


# The number-amplitude recurrence in its plain form: every row tests every
# column for overflow, divides by sqrt(n + 1) and multiplies by the scale.
# ``kerrzeno.fock._ladder_amplitudes`` must give the same amplitudes.
_LADDER_RANGE = 1e150


def ladder_amplitudes(alpha, r: float, n_rows: int) -> np.ndarray:
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


# Second moments of a Fock state from ladder sums, and the one-step outcome
# law of the observed Kerr chain: the exact Fock arm's references for the
# Gaussian layer's seed noise and kernel.
def _mean_a2(psi: FockVector) -> complex:
    c = psi.amps
    n = np.arange(psi.dim - 2)
    w = np.sqrt((n + 1.0) * (n + 2.0))
    return complex(np.sum(w * np.conj(c[:-2]) * c[2:]))


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
    psi = displaced_seed(spec, complex(z_from.q, z_from.p) / math.sqrt(2.0), dim)
    evolved = kerr_propagate(psi, chi_tau)
    target = displaced_seed(spec, complex(z_to.q, z_to.p) / math.sqrt(2.0), dim)
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
    return value exposes the quadrature error.  With ``r_max = None`` the
    grid reaches the source amplitude plus a Gaussian margin.
    """
    grid = grid or QuadratureGrid()
    alpha_from = complex(z_from.q, z_from.p) / math.sqrt(2.0)
    r_max = grid.r_max if grid.r_max is not None else abs(alpha_from) + 6.0
    psi = displaced_seed(spec, alpha_from, dim)
    evolved = kerr_propagate(psi, chi_tau).amps
    gram = _family_gram(spec, dim, grid, r_max)
    return float(np.vdot(evolved, gram @ evolved).real)


# Box-Muller and colouring as two stages that return new arrays, one
# expression tree per element.  ``kerrzeno.observed._coloured_noise``, which
# writes every stage in place, must give the same bits.
def box_muller(u0: np.ndarray, u1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two standard normals per uniform pair; the one expression tree shared
    by the generator and the vectorized streams."""
    radius = np.sqrt(-2.0 * np.log1p(-u0))
    angle = 2.0 * math.pi * u1
    return radius * np.cos(angle), radius * np.sin(angle)


def color_noise(n0: np.ndarray, n1: np.ndarray, sqrt_cov: np.ndarray):
    """Componentwise coloring; one fixed expression tree per element, so a
    trajectory rounds alike in a chunk of any size."""
    return (
        sqrt_cov[0, 0] * n0 + sqrt_cov[0, 1] * n1,
        sqrt_cov[1, 0] * n0 + sqrt_cov[1, 1] * n1,
    )


# The chain sampler's pipeline as whole-slice stages: every stream's uniforms
# of a slice drawn from the re-keyed generator and transposed in blocks of 64
# rows, then Box-Muller, colouring and a chain loop that stores its points in
# new arrays.
# ``kerrzeno.observed._sample_chains`` must give the same finals and paths.
_DRAW_BLOCK = 64


def stream_rows(generator, state: dict, indices: np.ndarray, first: int, span: int):
    """Uniform pairs first .. first + span - 1 of each stream, as (2, span, n).

    Per stream the generator takes ``state`` keyed (master_seed, i) at
    counter first // 2, so ``first`` must be even.  Rows are drawn
    _DRAW_BLOCK streams at a time and transposed while in cache.
    """
    state["state"]["counter"][0] = first // 2
    u = np.empty((2, span, len(indices)))
    rows = np.empty((min(_DRAW_BLOCK, len(indices)), span, 2))
    for lo in range(0, len(indices), _DRAW_BLOCK):
        block = rows[: len(indices) - lo]
        for index, row in zip(indices[lo : lo + _DRAW_BLOCK].tolist(), block):
            state["state"]["key"][1] = index
            generator.bit_generator.state = state
            generator.random(out=row)
        u[:, :, lo : lo + len(block)] = block.transpose(2, 1, 0)
    return u


def chain_points(zq, zp, rotation: np.ndarray, xi_q, xi_p):
    """Iterate z -> M (z + xi_j) over the leading step axis of xi."""
    m00, m01 = rotation[0, 0], rotation[0, 1]
    m10, m11 = rotation[1, 0], rotation[1, 1]
    out_q = np.empty_like(xi_q)
    out_p = np.empty_like(xi_p)
    for j in range(xi_q.shape[0]):
        sq, sp = zq + xi_q[j], zp + xi_p[j]
        zq, zp = m00 * sq + m01 * sp, m10 * sq + m11 * sp
        out_q[j], out_p[j] = zq, zp
    return out_q, out_p


def sample_chains(cfg, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Finals (hi - lo, 2) and paths (hi - lo, n_steps, 2) of trajectories
    lo..hi-1, chunked and sliced by ``observed._chunk_layout``."""
    from kerrzeno import observed

    n = cfg.params.n_steps
    theta = cfg.params.theta
    rotation = rotation_matrix(theta)
    sqrt_cov = observed.symmetric_sqrt_2x2(step_covariance(cfg.spec.r, theta))
    chunk, span = observed._chunk_layout(n)
    generator = np.random.Generator(np.random.Philox(key=(cfg.master_seed, 0)))
    state = generator.bit_generator.state
    finals = np.empty((hi - lo, 2))
    paths = np.empty((hi - lo, n, 2))
    for start in range(lo, hi, chunk):
        indices = np.arange(start, min(start + chunk, hi), dtype=np.uint64)
        rows = slice(start - lo, start - lo + len(indices))
        zq, zp = cfg.z0.q, cfg.z0.p
        for first in range(0, n, span):
            u = stream_rows(generator, state, indices, first, min(span, n - first))
            xi_q, xi_p = color_noise(*box_muller(u[0], u[1]), sqrt_cov)
            out_q, out_p = chain_points(zq, zp, rotation, xi_q, xi_p)
            paths[rows, first : first + len(out_q)] = np.stack([out_q.T, out_p.T], axis=-1)
            zq, zp = out_q[-1], out_p[-1]
        finals[rows] = paths[rows, -1]
    return finals, paths


# The summary moments as numpy computes them over the C-ordered finals.
# ``kerrzeno.experiments._sample_moments`` must give the same bits.
def sample_moments(finals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(finals)
    sample_mean = finals.mean(axis=0)
    sample_cov = np.cov(finals.T, ddof=1) if n > 1 else np.zeros((2, 2))
    return sample_mean, sample_cov


# The gram as a per-ring loop over each block's rings: one 2-D product and
# one weighted add into the gram per ring, in ring order.
# ``kerrzeno.fock._family_gram`` must give the same gram.
def family_gram(spec, n_rows: int, grid, r_max: float) -> np.ndarray:
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


# The recorded rows as lists of five Python cells, and the writers that take
# whole payloads: ``csv.writer`` over every row, and one ``json.dumps`` of the
# envelope with its rows.  ``kerrzeno.experiments``' block writers must give
# the same bytes.
def recorded_rows(paths: np.ndarray, n_steps: int, tau: float) -> list[list]:
    steps = np.arange(1, n_steps + 1)
    columns = (steps.tolist(), (steps * tau).tolist())
    rows = []
    for ti, path in enumerate(paths):
        rows.extend([ti, *cells] for cells in zip(*columns, *path.T.tolist()))
    return rows


def write_csv(columns: list[str], rows: list[list], fh) -> None:
    writer = csv.writer(fh, lineterminator="\r\n")
    writer.writerow(columns)
    writer.writerows(rows)


def json_payload(fields: dict) -> str:
    """``fields`` in envelope order, rows as lists, a null summary left out."""
    return json.dumps(fields, indent=2) + "\n"


# The exact arm's sweeps as the per-point loops they were, on Python floats
# and complexes: one Kerr propagation and one <a> per revival chi_t, and the
# closed forms of C_1, C_N and the survival terms once per N.  The bodies of
# the single-state ``kerr_propagate`` and ``mean_a`` and of the float kernels
# are copied in, so the package's array passes are checked against them and
# not against themselves.  ``kerrzeno.experiments``' runners must give the
# same rows.
def kerr_amps(psi: FockVector, chi_t: float) -> np.ndarray:
    n = np.arange(psi.dim)
    return psi.amps * np.exp(-1j * chi_t * n.astype(float) ** 2)


def mean_a_of(c: np.ndarray) -> complex:
    n = np.arange(1, len(c))
    return complex(np.sum(np.sqrt(n) * np.conj(c[: len(c) - 1]) * c[1:]))


def revival_rows(p: dict) -> list[list]:
    psi0 = displaced_seed(MeasurementSpec(), p["alpha"], p["dim"])
    chi_ts = np.linspace(p["chi_t_min"], p["chi_t_max"], p["n_points"])
    rows = []
    for chi_t in chi_ts:
        exact = mean_a_of(kerr_amps(psi0, float(chi_t)))
        closed = mean_a_closed_form(p["alpha"], float(chi_t))
        rows.append([float(chi_t), exact.real, closed.real])
    return rows


def step_entries(r: float, theta: float) -> tuple[float, float, float]:
    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    c2 = math.cos(theta) ** 2
    return ch + c2 * sh, 0.5 * math.sin(2.0 * theta) * sh, ch - c2 * sh


def dirichlet_sum(
    c00: float, c01: float, c11: float, theta: float, n: int
) -> tuple[float, float, float]:
    if n == 1:
        return c00, c01, c11
    eps = math.remainder(theta, math.pi)
    dirichlet = n if eps == 0.0 else math.sin(n * eps) / math.sin(eps)
    turn = (n - 1) * eps
    b = dirichlet * complex(0.5 * (c00 - c11), c01)
    b *= complex(math.cos(turn), math.sin(turn))
    a = 0.5 * (c00 + c11)
    return n * a + b.real, b.imag, n * a - b.real


def survival_terms(q0: float, p0: float, r: float, theta: float, n: int) -> tuple[float, float]:
    c00, c01, c11 = step_entries(r, theta)
    _check_covariance([[c00, c01], [c01, c11]], "c1")
    c00, c01, c11 = dirichlet_sum(c00, c01, c11, theta, n)
    total = n * theta
    if abs(math.remainder(total, 2.0 * math.pi)) < _RETURN_ANGLE_TOL:
        d0 = d1 = 0.0
    else:
        c, s = math.cos(-total), math.sin(-total)
        d0, d1 = c * q0 + s * p0 - q0, -s * q0 + c * p0 - p0
    _check_covariance([[c00, c01], [c01, c11]], "cov")
    det = c00 * c11 - c01 * c01
    quad = (c11 * (d0 * d0) - (c01 + c01) * d0 * d1 + c00 * (d1 * d1)) / det
    return -0.5 * quad, 2.0 * math.pi * math.sqrt(det)


def covariance_growth_rows(p: dict) -> list[list]:
    r, theta = p["r"], p["theta"]
    c00, c01, c11 = step_entries(r, theta)
    _check_covariance([[c00, c01], [c01, c11]], "c1")
    entries = np.empty((p["n_max"], 4))
    for n in range(1, p["n_max"] + 1):
        e00, e01, e11 = dirichlet_sum(c00, c01, c11, theta, n)
        entries[n - 1] = e00, e01, e01, e11
    _check_covariance(entries.reshape(-1, 2, 2), "cov")  # the first N refused
    sqrt_det = np.sqrt(np.linalg.det(entries.reshape(-1, 2, 2))).tolist()
    return [[n, s, det_cn_asymptotic(r, n)] for n, s in enumerate(sqrt_det, start=1)]


def zeno_continuous_rows(p: dict) -> list[list]:
    turns = 2.0 * math.pi * p["m"]
    ns = range(1, p["n_max"] + 1)
    exponents, norms = np.empty((2, p["n_max"]))
    for n in ns:
        exponents[n - 1], norms[n - 1] = survival_terms(2.0, 0.0, p["r"], turns / n, n)
    densities = (np.exp(exponents) / norms).tolist()
    return [[n, d, n * d] for n, d in zip(ns, densities)]


# two-level as its per-N loop: one ``np.linalg.matrix_power`` of T per N.
# ``kerrzeno.experiments._run_two_level`` must give the same rows.
def two_level_rows(p: dict) -> list[list]:
    rows = []
    for n in range(1, p["n_max"] + 1):
        model = TwoLevelModel(p["alpha"], p["omega_tau"], n)
        exact = float(np.linalg.matrix_power(transition_matrix(model), n)[0, 0])
        asymptotic = survival_asymptotic(p["alpha"], n * p["omega_tau"], n)
        rows.append([n, exact, survival_closed_form(model), asymptotic])
    return rows


# JSON's text of the non-finite floats, which CSV writes by float.__repr__.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def cell_text(value: int | float, layout) -> str:
    """One cell as the writers write it: an int by int.__repr__, a float by
    float.__repr__, with JSON's names for the non-finite ones."""
    if isinstance(value, int):
        return int.__repr__(value)
    text = float.__repr__(value)
    return _JSON_NON_FINITE.get(text, text) if layout is experiments._JSON else text


# The writer formatting every row, plain or recorded, one cell at a time, in
# one block.  ``kerrzeno.experiments._write_rows`` must give the same bytes.
def write_rows(rows, layout, fh) -> None:
    fh.write(layout.row_sep.join(
        layout.row(cell_text(value, layout) for value in rows[i]) for i in range(len(rows))
    ))
