"""
Named batch experiments with strict declarative configs.

Each experiment maps one headline claim of the model onto a columnar
table: the collapse/revival curve, the linear covariance growth, sampled
observed trajectories against their closed-form distribution, the 1/N
decay of the continuous-family survival density versus the dichotomic
freeze-out, the two-outcome overlap model, and the completeness defect of
the measurement family.

Configs are a JSON key-value tree::

    {
      "experiment": "revival",
      "master_seed": 7,
      "output": {"path": "revival.csv", "format": "csv"},
      "parameters": {"alpha": 4.0, "n_points": 512}
    }

Validation is strict: unknown keys anywhere are errors, every error
carries its field path, and defaults are filled in and echoed back so a
result can be reproduced without the original file.  Re-running a config
with the same master seed yields byte-identical rows.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from . import fock, observed, phase_space, two_level
from .phase_space import _int_text
from .version import __version__

__all__ = [
    "Field",
    "ExperimentSpec",
    "ExperimentConfig",
    "ResultEnvelope",
    "PathRows",
    "EXPERIMENTS",
    "validate_config",
    "seed_problem",
    "run_experiment",
    "envelope_json_dict",
    "write_csv",
    "write_json",
]

RunnerResult = tuple[list[str], Sequence[list], dict | None]

# The step covariance reads sin(2 theta), so a step angle must keep 2 theta
# finite: covariance-growth bounds theta by max_float / 2, and
# zeno-continuous, whose N = 1 step turns by 2 pi m, bounds m by this.
_TURNS_MAX = sys.float_info.max / (4.0 * math.pi)
# An identity-grid node weight rho dr dphi is at most 2 pi r_max^2, as is
# |alpha|^2 in the ladder; revival's linspace span is at most 2 _CHI_T_MAX.
_R_MAX = math.sqrt(sys.float_info.max / (2.0 * math.pi))
_CHI_T_MAX = sys.float_info.max / 4.0
# Ladder amplitudes plus gram entries one identity-check may compute over
# its two grids: about 3 s on one pinned core of a 2-core Xeon (2.7 s at
# n_r = 36260 at the default n_phi, 1.9-2.0 s on rings of one or two nodes,
# where 2 n_r meets fock's array budget).
_IDENTITY_WORK = 2**28
# Bytes the finals and recorded paths of one trajectories run may hold: 32 a
# trajectory (its final and the moments' centred copy) and _ROW_BYTES a
# recorded row, its path point.  The sampler adds one slice's scratch, at most
# 16 MB whatever the chain length (traced peak 16.7 MB for 10 paths of 100k
# steps), and the writers one block of rows' text, under 10 MB whatever the
# row count.
_TRAJECTORY_BYTES = 2**31
_ROW_BYTES = 16
# Trajectory-steps one trajectories run may sample: about 25 min at the
# measured 90 ns a trajectory-step on one core.
_TRAJECTORY_STEPS = 2**34
# Points of a revival grid or an N-sweep, one row each, whose rows hold
# about 200 MB.  two-level at this n_max runs in about 5 s on one pinned core
# of a 2-core Xeon, most of it the per-N closed forms: its matrix powers,
# sharing their squarings over each pass, take 0.9 s.
_SWEEP_POINTS = 2**20
# Amplitudes revival propagates, n_points * dim: about 7 s at the measured
# 100 ns an amplitude on one core, which is what the time exponentials cost.
_REVIVAL_WORK = 2**26
# Amplitudes or N one array pass of revival or an N-sweep may hold, as
# fock's _GRAM_BLOCK_ELEMENTS does for the identity grid.
_PASS_ELEMENTS = 2**16


@dataclass(frozen=True)
class Field:
    """One validated config parameter."""

    name: str
    kind: str  # "int" | "float" | "int_list"
    default: Any = None
    nullable: bool = False
    minimum: float | None = None
    maximum: float | None = None
    help: str = ""


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    description: str
    fields: tuple[Field, ...]
    runner: Callable[[dict, int], RunnerResult]


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated run request with all defaults resolved."""

    experiment: str
    parameters: dict
    output_path: str | None
    output_format: str
    master_seed: int


@dataclass(frozen=True)
class ResultEnvelope:
    """Self-describing result: enough metadata to re-run the experiment."""

    experiment: str
    parameters: dict
    tool_version: str
    master_seed: int
    wall_time_s: float
    columns: list[str]
    rows: Sequence[list]
    summary: dict | None = None


# ---------------------------------------------------------------------------
# validation


def _check_value(f: Field, value: Any) -> tuple[Any, str | None]:
    if value is None:
        if f.nullable:
            return None, None
        return None, "must not be null"
    if f.kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            return None, f"expected an integer, got {type(value).__name__}"
    elif f.kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None, f"expected a number, got {type(value).__name__}"
        try:
            value = float(value)
        except OverflowError:
            return None, f"must be within the float range, got {_int_text(value)}"
        if not math.isfinite(value):
            return None, "must be finite"
    if f.kind in ("int", "float"):
        got = _int_text(value) if f.kind == "int" else value
        if f.minimum is not None and value < f.minimum:
            return None, f"must be >= {f.minimum:g}, got {got}"
        if f.maximum is not None and value > f.maximum:
            return None, f"must be <= {f.maximum:g}, got {got}"
        return value, None
    if f.kind == "int_list":
        if not isinstance(value, list) or not value:
            return None, "expected a non-empty list of integers"
        for item in value:
            if isinstance(item, bool) or not isinstance(item, int):
                return None, f"expected integers, got {item!r}"
            if f.minimum is not None and item < f.minimum:
                return None, f"entries must be >= {f.minimum:g}, got {_int_text(item)}"
        return list(value), None
    raise AssertionError(f"unknown field kind {f.kind!r}")


_FORMATS = ("csv", "json")


def seed_problem(seed: Any) -> str | None:
    """Why ``seed`` is not a valid master seed, or None when it is."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        return "must be an integer"
    if not 0 <= seed < observed.SEED_LIMIT:
        return f"must be in [0, 2**63), got {_int_text(seed)}"
    return None


def validate_config(raw: Any) -> tuple[ExperimentConfig | None, list[tuple[str, str]]]:
    """Validate a parsed config tree; returns (config, errors).

    All problems are accumulated as (field path, message) pairs; the
    config is returned only when the list is empty.
    """
    errors: list[tuple[str, str]] = []
    if not isinstance(raw, dict):
        return None, [("", "config must be a JSON object")]

    allowed_top = {"experiment", "parameters", "output", "master_seed"}
    for key in raw:
        if key not in allowed_top:
            errors.append((key, "unknown key"))

    name = raw.get("experiment")
    spec: ExperimentSpec | None = None
    if name is None:
        errors.append(("experiment", "missing experiment name"))
    elif not isinstance(name, str) or name not in EXPERIMENTS:
        errors.append(
            ("experiment", f"unknown experiment {name!r}; see the list command")
        )
    else:
        spec = EXPERIMENTS[name]

    seed = raw.get("master_seed", 0)
    problem = seed_problem(seed)
    if problem is not None:
        errors.append(("master_seed", problem))
        seed = 0

    out_path: str | None = None
    out_format = "json"
    output = raw.get("output", {})
    if not isinstance(output, dict):
        errors.append(("output", "must be an object"))
    else:
        for key in output:
            if key not in ("path", "format"):
                errors.append((f"output.{key}", "unknown key"))
        out_path = output.get("path")
        if out_path is not None and not isinstance(out_path, str):
            errors.append(("output.path", "must be a string"))
            out_path = None
        out_format = output.get("format", "json")
        if out_format not in _FORMATS:
            errors.append(("output.format", f"must be one of {_FORMATS}"))
            out_format = "json"

    params_raw = raw.get("parameters", {})
    resolved: dict[str, Any] = {}
    if not isinstance(params_raw, dict):
        errors.append(("parameters", "must be an object"))
    elif spec is not None:
        known = {f.name: f for f in spec.fields}
        for key in params_raw:
            if key not in known:
                errors.append((f"parameters.{key}", "unknown parameter"))
        for f in spec.fields:
            value, problem = _check_value(f, params_raw.get(f.name, f.default))
            if problem is not None:
                errors.append((f"parameters.{f.name}", problem))
            else:
                resolved[f.name] = value

    if errors or spec is None:
        return None, errors
    return (
        ExperimentConfig(
            experiment=spec.name,
            parameters=resolved,
            output_path=out_path,
            output_format=out_format,
            master_seed=seed,
        ),
        [],
    )


# ---------------------------------------------------------------------------
# runners


def _require_within(fields: dict, need: int, budget: int, what: str, **counts: int) -> None:
    """ValueError "{fields} need {what}, over the budget of {budget}" when the
    estimate ``need`` is over ``budget``: ``fields`` are the config's integers,
    written name=value, and the template ``what`` says what is needed from
    ``{need}`` and ``counts``.  Every integer prints through _int_text, past
    16 digits in e-notation, so the refusal stays one short line."""
    if need > budget:
        named = ", ".join(f"{name}={_int_text(value)}" for name, value in fields.items())
        counts = {name: _int_text(value) for name, value in {"need": need, **counts}.items()}
        raise ValueError(f"{named} need {what.format(**counts)}, "
                         f"over the budget of {_int_text(budget)}")


def _pass_rows(xs: np.ndarray, per_pass: int, columns) -> list[list]:
    """Rows [x, *cells] for each x of ``xs``; ``columns`` gives the other
    columns of at most ``per_pass`` of them at a time, as arrays or lists."""
    rows = []
    for lo in range(0, len(xs), per_pass):
        part = xs[lo : lo + per_pass]
        rows += map(list, zip(part.tolist(), *(np.asarray(c).tolist() for c in columns(part))))
    return rows


def _run_revival(p: dict, master_seed: int) -> RunnerResult:
    """The exact <a> at every chi_t of the grid against its closed form.

    The budgets, then the phases of the grid's largest |chi_t|, are checked
    before anything is exponentiated.  The grid is propagated in passes of
    at most _PASS_ELEMENTS amplitudes, each one (k, dim) array through
    ``kerr_propagate`` and ``mean_a``, which give each row the bits of its
    chi_t alone; the closed form runs per point on Python floats.
    """
    psi0 = fock.displaced_seed(fock.MeasurementSpec(), p["alpha"], p["dim"])
    n_points = p["n_points"]
    fields = {"n_points": n_points, "dim": psi0.dim}
    _require_within(fields, n_points, _SWEEP_POINTS, "{need} rows")
    _require_within(fields, n_points * psi0.dim, _REVIVAL_WORK, "{need} propagated amplitudes")
    chi_ts = np.linspace(p["chi_t_min"], p["chi_t_max"], n_points)
    fock._require_kerr_times(chi_ts, psi0.dim)

    def columns(part):
        exact = fock.mean_a(fock.kerr_propagate(psi0, part)).real
        return exact, [fock.mean_a_closed_form(p["alpha"], c).real for c in part.tolist()]

    rows = _pass_rows(chi_ts, max(1, _PASS_ELEMENTS // psi0.dim), columns)
    return ["chi_t", "re_mean_a_exact", "re_mean_a_closed"], rows, None


def _run_covariance_growth(p: dict, master_seed: int) -> RunnerResult:
    """C_N over passes of N from ``accumulate_covariance``, then one batched
    ``np.linalg.det`` (the same LAPACK call per matrix, so each row keeps its
    rounding) and one ``np.sqrt``.  The first N whose C_N overflows or is not
    SPD is refused."""
    r, theta, n_max = p["r"], p["theta"], p["n_max"]
    _require_within({"n_max": n_max}, n_max, _SWEEP_POINTS, "{need} rows")
    c1 = phase_space.step_covariance(r, theta)
    cosh_2r = math.cosh(2.0 * r)

    def columns(ns):
        cn = phase_space.accumulate_covariance(c1, theta, ns)
        return np.sqrt(np.linalg.det(cn)), ns * cosh_2r

    rows = _pass_rows(np.arange(1, n_max + 1), _PASS_ELEMENTS, columns)
    return ["n", "sqrt_det_cn", "n_cosh_2r"], rows, None


def _check_trajectories_budget(p: dict) -> None:
    """Refuse the run from estimates alone: its 2 n_trajectories finals and
    min(record_paths, n_trajectories) n_steps rows must fit the memory budget,
    its n_trajectories n_steps trajectory-steps the time budget, and its last
    time n_steps tau a float."""
    n, n_steps, record = p["n_trajectories"], p["n_steps"], p["record_paths"]
    rows, steps = min(record, n) * n_steps, n * n_steps
    fields = {"n_trajectories": n, "n_steps": n_steps}
    _require_within({**fields, "record_paths": record}, 32 * n + _ROW_BYTES * rows,
                    _TRAJECTORY_BYTES, "about {need} bytes for {n} finals and {rows} recorded rows",
                    n=n, rows=rows)
    try:
        hours = f"{steps * 90e-9 / 3600:.3g}"
    except OverflowError:  # past the float range: the int hours' first digits
        hours = _int_text(steps // 40_000_000_000, figures=3)
    _require_within(fields, steps, _TRAJECTORY_STEPS,
                    f"{{need}} trajectory-steps, about {hours} h at 90 ns each")
    if not math.isfinite(n_steps * p["tau"]):
        raise ValueError(
            f"n_steps={n_steps}, tau={p['tau']!r} put the last step at a time that overflows"
        )


def _sample_moments(finals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``finals.mean(axis=0)`` and ``np.cov(finals.T, ddof=1)`` (zeros for one row) with
    their bits: numpy sums axis 0 row by row from +0.0, and ``np.cov`` centres a copy
    laid out as ``centred``, so ``np.dot`` makes the same BLAS call."""
    n = len(finals)
    mean, centred = np.empty(2), np.empty_like(finals)
    for k in (0, 1):
        np.add.accumulate(finals[:, k], out=centred[:, k])
        mean[k] = (centred[-1, k] + 0.0) / n
        np.subtract(finals[:, k], mean[k], out=centred[:, k])
    return mean, np.dot(centred.T, centred) * np.true_divide(1, max(n - 1, 1))


def _run_trajectories(p: dict, master_seed: int) -> RunnerResult:
    _check_trajectories_budget(p)
    q0, p0 = p["q0"], p["p0"]
    n_bar = p["n_bar"] if p["n_bar"] is not None else 0.5 * (q0 * q0 + p0 * p0)
    if not math.isfinite(n_bar):
        raise ValueError(
            f"the mean photon number (q0^2 + p0^2) / 2 derived for a null n_bar must "
            f"be finite, got q0={q0!r}, p0={p0!r}"
        )
    cfg = observed.ObservedRunConfig(
        z0=phase_space.PhaseVector(q0, p0),
        params=phase_space.EvolutionParams(p["chi"], n_bar, p["tau"], p["n_steps"]),
        spec=fock.MeasurementSpec(p["r"]),
        n_trajectories=p["n_trajectories"],
        master_seed=master_seed,
    )
    # the step covariance reads sin(2 theta); a nan theta fails the test too
    if not abs(cfg.params.theta) <= sys.float_info.max / 2:
        raise ValueError(
            f"the step angle theta = 2 chi n_bar tau must satisfy |theta| <= max_float / 2, "
            f"got chi={p['chi']!r}, n_bar={n_bar!r}, tau={p['tau']!r}, theta={cfg.params.theta!r}"
        )
    n = cfg.n_trajectories
    paths = np.empty((min(p["record_paths"], n), cfg.params.n_steps, 2))
    # an overflowing chain exits 3 through FloatingPointError, and overflowing
    # moments or 4-SE statistics through a ValueError naming them, not as
    # warnings; the closed form goes first, so a step covariance that is not
    # positive-definite is refused before anything is sampled; the moments
    # take per-column sums and one centred product, numpy.mean's and
    # numpy.cov's bits
    with np.errstate(over="raise", invalid="raise"):
        target = observed.analytic_final_distribution(cfg)
        finals = observed.run_ensemble(cfg, paths)
        try:
            sample_mean, sample_cov = _sample_moments(finals)
            mean_err = float(np.linalg.norm(sample_mean - target.mean.as_array()))
            mean_limit = 4.0 * math.sqrt(float(np.trace(target.cov)) / n)
            diag = np.diag(target.cov)
            cov_se = np.sqrt((np.outer(diag, diag) + target.cov**2) / n)
            max_dev_se = float(np.max(np.abs(sample_cov - target.cov) / cov_se))
        except FloatingPointError:
            raise ValueError(
                f"the sample moments of n_trajectories={n} finals from q0={q0!r}, "
                f"p0={p0!r} overflow (in the summary's mean, covariance or 4-SE statistics)"
            ) from None
    summary = {
        "n_trajectories": n,
        "analytic_mean": [float(x) for x in target.mean.as_array()],
        "sample_mean": [float(x) for x in sample_mean],
        "mean_error": mean_err,
        "mean_error_limit_4se": mean_limit,
        "analytic_cov": [[float(x) for x in row] for row in target.cov],
        "sample_cov": [[float(x) for x in row] for row in sample_cov],
        "max_cov_deviation_se": max_dev_se,
    }
    return ["trajectory", "step", "time", "q", "p"], PathRows(paths, cfg.params.tau), summary


def _run_zeno_continuous(p: dict, master_seed: int) -> RunnerResult:
    """``survival_density_continuous`` at tau = 2 pi m / N for every N, over
    passes of N.  The first N whose C_1 or C_N overflows or is not SPD is
    refused."""
    n_max = p["n_max"]
    _require_within({"n_max": n_max}, n_max, _SWEEP_POINTS, "{need} rows")
    turns = 2.0 * math.pi * p["m"]  # tau = turns / N; omega = 1, so theta = tau
    r = fock.MeasurementSpec(p["r"]).r  # refuses |r| > 700
    z0 = phase_space.PhaseVector(2.0, 0.0)  # where the drift starts

    def columns(ns):
        densities = observed.survival_density_continuous(z0, r, turns / ns, ns)
        return densities, ns * densities

    rows = _pass_rows(np.arange(1, n_max + 1), _PASS_ELEMENTS, columns)
    return ["n", "survival_density", "n_times_survival_density"], rows, None


def _run_zeno_dichotomic(p: dict, master_seed: int) -> RunnerResult:
    alpha0 = complex(p["alpha0_re"], p["alpha0_im"])
    psi0 = fock.displaced_seed(fock.MeasurementSpec(p["r"]), alpha0, p["dim"])
    var_n2 = fock.number_squared_variance(psi0)
    try:
        chi_t_sq = p["chi_t"] ** 2
    except OverflowError:
        raise ValueError(f"chi_t={p['chi_t']!r} overflows when squared for the "
                         "Gaussian bound exp(-var_n2 chi_t^2 / N)") from None
    rows = []
    for n in p["n_list"]:
        survival = fock.dichotomic_survival_exact(psi0, p["chi_t"], n)
        rows.append([n, survival, math.exp(-var_n2 * chi_t_sq / n)])
    summary = {"var_n2": var_n2, "dim": psi0.dim}
    return ["n", "survival", "gaussian_bound"], rows, summary


def _run_two_level(p: dict, master_seed: int) -> RunnerResult:
    """``survival_exact`` over passes of N, each pass one call that gives
    every N matrix_power's bits; the closed form and the large-N
    approximation run per N on Python floats."""
    n_max, alpha, omega_tau = p["n_max"], p["alpha"], p["omega_tau"]
    _require_within({"n_max": n_max}, n_max, _SWEEP_POINTS, "{need} rows")
    model = two_level.TwoLevelModel(alpha, omega_tau, n_max)

    def columns(ns):
        closed = [
            two_level.survival_closed_form(two_level.TwoLevelModel(alpha, omega_tau, n))
            for n in ns.tolist()
        ]
        asymptotic = [
            two_level.survival_asymptotic(alpha, n * omega_tau, n) for n in ns.tolist()
        ]
        return two_level.survival_exact(model, ns), closed, asymptotic

    rows = _pass_rows(np.arange(1, n_max + 1), _PASS_ELEMENTS, columns)
    return ["n", "survival_exact", "survival_closed", "survival_asymptotic"], rows, None


def _run_two_level_sweep(p: dict, master_seed: int) -> RunnerResult:
    rows = two_level.scaling_sweep(p["c"], p["beta"], p["omega_t"], p["n_list"])
    return ["n", "alpha_n", "survival"], [list(row) for row in rows], None


def _check_identity_budget(p: dict) -> None:
    """Refuse both identity grids from estimates alone.

    Each array, the gram ((dim_check + 1)^2), one ring of the doubled grid
    ((dim_check + 1) 2 n_phi) and its 2 n_r radii, must fit fock's array
    budget.  The work of both grids, n_r + 2 n_r rings of n_phi and 2 n_phi
    nodes, is the ladder amplitudes, (dim_check + 1) 5 n_r n_phi, plus the
    gram entries each ring updates, (dim_check + 1)^2 3 n_r.
    """
    rows, n_r, n_phi = p["dim_check"] + 1, p["n_r"], p["n_phi"]
    fields = {"dim_check": p["dim_check"], "n_r": n_r, "n_phi": n_phi}
    largest = max(rows * rows, rows * 2 * n_phi, 2 * n_r)
    _require_within(fields, largest, fock._MAX_DIM,
                    "an array of {need} elements (gram, ring or radii)")
    _require_within(fields, rows * n_r * (5 * n_phi + 3 * rows), _IDENTITY_WORK,
                    "{need} ladder amplitudes and gram entries over both grids")


def _run_identity_check(p: dict, master_seed: int) -> RunnerResult:
    _check_identity_budget(p)
    spec = fock.MeasurementSpec(p["r"])
    base = fock.QuadratureGrid(n_r=p["n_r"], n_phi=p["n_phi"], r_max=p["r_max"])
    rows = []
    for scale, grid in enumerate((base, base.doubled()), start=1):
        defect = fock.identity_resolution_defect(spec, grid, dim_check=p["dim_check"])
        rows.append([scale, grid.n_r, grid.n_phi, defect])
    return ["grid_scale", "n_r", "n_phi", "defect"], rows, None


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            "revival",
            "Collapse/revival curve of Re<a>: exact truncated-basis propagation "
            "against its closed form.",
            (
                Field("alpha", "float", 4.0, help="initial coherent amplitude (real)"),
                Field("chi_t_min", "float", 0.0, minimum=-_CHI_T_MAX,
                      maximum=_CHI_T_MAX),
                Field("chi_t_max", "float", math.pi, minimum=-_CHI_T_MAX,
                      maximum=_CHI_T_MAX),
                Field("n_points", "int", 512, minimum=2),
                Field("dim", "int", None, nullable=True, minimum=2,
                      help="basis cutoff; null picks the default rule"),
            ),
            _run_revival,
        ),
        ExperimentSpec(
            "covariance-growth",
            "sqrt(det C_N) of the accumulated outcome covariance against the "
            "N cosh(2r) asymptote.",
            (
                Field("r", "float", 0.0, help="seed squeezing parameter"),
                Field("theta", "float", 0.01, minimum=-sys.float_info.max / 2,
                      maximum=sys.float_info.max / 2, help="rotation angle per step"),
                Field("n_max", "int", 500, minimum=1),
            ),
            _run_covariance_growth,
        ),
        ExperimentSpec(
            "trajectories",
            "Sampled observed trajectories; the envelope summary compares the "
            "final-outcome moments with the closed-form distribution.",
            (
                Field("q0", "float", 3.0),
                Field("p0", "float", 0.0),
                Field("chi", "float", 0.1),
                Field("n_bar", "float", None, nullable=True, minimum=0.0,
                      help="mean photon number; null derives |alpha0|^2"),
                Field("tau", "float", 0.1, minimum=math.ulp(0.0)),
                Field("n_steps", "int", 20, minimum=1),
                Field("r", "float", 0.0),
                Field("n_trajectories", "int", 10000, minimum=1),
                Field("record_paths", "int", 10, minimum=0,
                      help="how many full paths go into the rows"),
            ),
            _run_trajectories,
        ),
        ExperimentSpec(
            "zeno-continuous",
            "Survival density of the continuous measurement family at full "
            "turns; N times the density stays constant.",
            (
                Field("r", "float", 0.0),
                Field("n_max", "int", 1000, minimum=1),
                Field("m", "int", 1, minimum=1, maximum=_TURNS_MAX,
                      help="full turns per run"),
            ),
            _run_zeno_continuous,
        ),
        ExperimentSpec(
            "zeno-dichotomic",
            "Survival under a repeated yes/no check of the initial state, "
            "with the short-time Gaussian bound.",
            (
                Field("alpha0_re", "float", 2.0),
                Field("alpha0_im", "float", 0.0),
                Field("r", "float", 0.0),
                Field("chi_t", "float", 0.1),
                Field("n_list", "int_list", [1, 10, 100, 1000], minimum=1),
                Field("dim", "int", None, nullable=True, minimum=2),
            ),
            _run_zeno_dichotomic,
        ),
        ExperimentSpec(
            "two-level",
            "Two-outcome overlap model: matrix-power survival, its spectral "
            "closed form, and the large-N approximation.",
            (
                Field("alpha", "float", 0.3, minimum=0.0, maximum=math.pi / 2,
                      help="overlap angle"),
                Field("omega_tau", "float", 0.05),
                Field("n_max", "int", 200, minimum=1),
            ),
            _run_two_level,
        ),
        ExperimentSpec(
            "two-level-sweep",
            "Survival along the shrinking-overlap path alpha = c / N^beta; "
            "the freeze/no-freeze crossover sits at beta = 1/2.",
            (
                Field("c", "float", 1.0),
                Field("beta", "float", 1.0),
                Field("omega_t", "float", 1.0, help="Rabi angle omega * t of the run"),
                Field("n_list", "int_list",
                      [1, 10, 100, 1000, 10000, 100000, 1000000], minimum=1),
            ),
            _run_two_level_sweep,
        ),
        ExperimentSpec(
            "identity-check",
            "Completeness defect of the displaced measurement family on a "
            "polar quadrature grid and on the grid doubled in both axes.",
            (
                Field("r", "float", 0.0),
                Field("dim_check", "int", 10, minimum=1),
                Field("n_r", "int", 200, minimum=1),
                Field("n_phi", "int", 128, minimum=1),
                Field("r_max", "float", None, nullable=True, minimum=1e-6, maximum=_R_MAX),
            ),
            _run_identity_check,
        ),
    )
}


def run_experiment(config: ExperimentConfig) -> ResultEnvelope:
    """Execute a validated config and wrap the table in its provenance."""
    spec = EXPERIMENTS[config.experiment]
    start = time.perf_counter()
    columns, rows, summary = spec.runner(config.parameters, config.master_seed)
    elapsed = time.perf_counter() - start
    return ResultEnvelope(
        experiment=config.experiment,
        parameters=dict(config.parameters),
        tool_version=__version__,
        master_seed=config.master_seed,
        wall_time_s=elapsed,
        columns=columns,
        rows=rows,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# serialization
#
# Both formats write a row as its cells' text between an opening and a
# closing string, and rows with a separator between them.  A writer formats
# one block of at most _BLOCK_ROWS rows at a time and writes it to the
# stream, so its memory does not grow with the row count.  A block of plain
# rows is one '%s' template a row, which writes ints as ints and floats by
# float.__repr__ (as str writes numpy's float64 too).  JSON then spells each
# block's non-finite floats NaN, Infinity and -Infinity: the block's other
# text holds no letter but the exponents' e, so replacing "nan" and "inf"
# is exact.

_BLOCK_ROWS = 2**14


class _Layout(NamedTuple):
    open: str
    sep: str
    close: str
    row_sep: str
    non_finite: tuple[tuple[str, str], ...]  # (float.__repr__ text, the format's)

    def row(self, cells: Iterator[str]) -> str:
        return self.open + self.sep.join(cells) + self.close


_CSV = _Layout("", ",", "\r\n", "", ())
# "inf" -> "Infinity" turns "-inf" into "-Infinity" too
_JSON = _Layout("[\n      ", ",\n      ", "\n    ]", ",\n    ",
                (("nan", "NaN"), ("inf", "Infinity")))


class PathRows(Sequence):
    """Rows ``[trajectory, step, time, q, p]`` of recorded paths, served
    from the (k, n_steps, 2) path array: step j of path i is row
    i n_steps + j - 1, at time j tau.  No row is held."""

    def __init__(self, paths: np.ndarray, tau: float) -> None:
        self.paths, self.tau = paths, tau

    def __len__(self) -> int:
        return self.paths.shape[0] * self.paths.shape[1]

    def __getitem__(self, index: int) -> list:
        if not -len(self) <= index < len(self):
            raise IndexError("row index out of range")
        ti, j = divmod(index % len(self), self.paths.shape[1])
        return [ti, j + 1, (j + 1) * self.tau, *self.paths[ti, j].tolist()]

    def text_blocks(self, layout: _Layout) -> Iterator[str]:
        """The rows' text in blocks of at most _BLOCK_ROWS rows: whole paths
        while a path fits in a block, else step slices of one path.  The
        step and time cells of a slice, with the separators around them,
        are formatted when the slice differs from the last one, so once per
        run when a path fits in a block."""
        k, n = self.paths.shape[:2]
        span = min(n, _BLOCK_ROWS)
        cells_lo, step_cells = None, []
        pending: list[str] = []
        for ti in range(k):
            head = layout.open + int.__repr__(ti)
            for lo in range(0, n, span):
                if lo != cells_lo:
                    cells_lo, step_cells = lo, self._step_cells(lo, min(lo + span, n), layout)
                q, p = self.paths[ti, lo : lo + span].T
                # five parts a row: head (the end of the row before it first),
                # the step cells, q, sep, p
                parts = [layout.close + layout.row_sep + head, "", "", layout.sep, ""] * len(q)
                parts[0] = head
                parts[1::5] = step_cells
                parts[2::5] = map(float.__repr__, q.tolist())
                parts[4::5] = map(float.__repr__, p.tolist())
                parts.append(layout.close)
                pending.append("".join(parts))
                if (len(pending) + 1) * span > _BLOCK_ROWS:
                    yield layout.row_sep.join(pending)
                    pending = []
        if pending:
            yield layout.row_sep.join(pending)

    def _step_cells(self, lo: int, hi: int, layout: _Layout) -> list[str]:
        """``sep step sep time sep`` for steps lo + 1 .. hi."""
        template = layout.sep + "%d" + layout.sep + "%s" + layout.sep
        steps = np.arange(lo + 1, hi + 1)
        return list(map(template.__mod__, zip(steps.tolist(), (steps * self.tau).tolist())))


def _block_text(rows: Sequence[list], layout: _Layout) -> str:
    """Text of a block of plain rows, one '%s' template a row."""
    template = layout.row(["%s"] * len(rows[0]))
    return layout.row_sep.join(map(template.__mod__, map(tuple, rows)))


def _write_rows(rows: Sequence[list], layout: _Layout, fh) -> None:
    if isinstance(rows, PathRows):
        blocks = rows.text_blocks(layout)
    else:
        blocks = (
            _block_text(rows[lo : lo + _BLOCK_ROWS], layout)
            for lo in range(0, len(rows), _BLOCK_ROWS)
        )
    for i, block in enumerate(blocks):
        for text, name in layout.non_finite:
            block = block.replace(text, name)
        if i:
            fh.write(layout.row_sep)
        fh.write(block)


def envelope_json_dict(envelope: ResultEnvelope) -> dict:
    """The envelope's fields in order, a null summary left out; ``rows`` is
    the envelope's row sequence, which ``write_json`` streams.  Reruns
    differ only in wall_time_s."""
    out = dict(vars(envelope))
    if out["summary"] is None:
        del out["summary"]
    return out


def write_json(envelope: ResultEnvelope, fh) -> None:
    """The envelope as ``json.dumps(..., indent=2)`` writes it, plus a
    newline, with the rows streamed in the same layout."""
    fields = envelope_json_dict(envelope)
    rows, fields["rows"] = fields["rows"], []
    # only top-level keys sit after a newline and two spaces
    head, key, tail = json.dumps(fields, indent=2).partition('\n  "rows": []')
    fh.write(head + key[:-2])
    if len(rows):
        fh.write("[\n    ")
        _write_rows(rows, _JSON, fh)
        fh.write("\n  ]")
    else:
        fh.write("[]")
    fh.write(tail + "\n")


def write_csv(envelope: ResultEnvelope, fh) -> None:
    """Header plus data rows, comma-separated, CRLF line endings."""
    fh.write(_CSV.row(envelope.columns))
    _write_rows(envelope.rows, _CSV, fh)
