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

import csv
import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import fock, observed, phase_space, two_level
from .version import __version__

__all__ = [
    "Field",
    "ExperimentSpec",
    "ExperimentConfig",
    "ResultEnvelope",
    "EXPERIMENTS",
    "validate_config",
    "seed_problem",
    "run_experiment",
    "envelope_json_dict",
    "write_csv",
]

RunnerResult = tuple[list[str], list[list], dict | None]

# The step covariance reads sin(2 theta), so a step angle must keep 2 theta
# finite: covariance-growth bounds theta by max_float / 2, and
# zeno-continuous, whose N = 1 step turns by 2 pi m, bounds m by this.
_TURNS_MAX = sys.float_info.max / (4.0 * math.pi)


@dataclass(frozen=True)
class Field:
    """One validated config parameter."""

    name: str
    kind: str  # "int" | "float" | "bool" | "int_list"
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
    rows: list[list]
    summary: dict | None = None


# ---------------------------------------------------------------------------
# validation


def _check_value(f: Field, value: Any) -> tuple[Any, str | None]:
    if value is None:
        if f.nullable:
            return None, None
        return None, "must not be null"
    if f.kind == "bool":
        if not isinstance(value, bool):
            return None, f"expected a boolean, got {type(value).__name__}"
        return value, None
    if f.kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            return None, f"expected an integer, got {type(value).__name__}"
    elif f.kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None, f"expected a number, got {type(value).__name__}"
        value = float(value)
        if not math.isfinite(value):
            return None, "must be finite"
    if f.kind in ("int", "float"):
        if f.minimum is not None and value < f.minimum:
            return None, f"must be >= {f.minimum:g}, got {value}"
        if f.maximum is not None and value > f.maximum:
            return None, f"must be <= {f.maximum:g}, got {value}"
        return value, None
    if f.kind == "int_list":
        if not isinstance(value, list) or not value:
            return None, "expected a non-empty list of integers"
        for item in value:
            if isinstance(item, bool) or not isinstance(item, int):
                return None, f"expected integers, got {item!r}"
            if f.minimum is not None and item < f.minimum:
                return None, f"entries must be >= {f.minimum:g}, got {item}"
        return list(value), None
    raise AssertionError(f"unknown field kind {f.kind!r}")


_FORMATS = ("csv", "json")


def seed_problem(seed: Any) -> str | None:
    """Why ``seed`` is not a valid master seed, or None when it is."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        return "must be an integer"
    if not 0 <= seed < observed.SEED_LIMIT:
        return f"must be in [0, 2**63), got {seed}"
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


def _run_revival(p: dict, master_seed: int) -> RunnerResult:
    psi0 = fock.displaced_seed(fock.MeasurementSpec(), p["alpha"], p["dim"])
    chi_ts = np.linspace(p["chi_t_min"], p["chi_t_max"], p["n_points"])
    rows = []
    for chi_t in chi_ts:
        exact = fock.mean_a(fock.kerr_propagate(psi0, float(chi_t)))
        closed = fock.mean_a_closed_form(p["alpha"], float(chi_t))
        rows.append([float(chi_t), exact.real, closed.real])
    return ["chi_t", "re_mean_a_exact", "re_mean_a_closed"], rows, None


def _run_covariance_growth(p: dict, master_seed: int) -> RunnerResult:
    """C_N for every N from the float kernel of ``accumulate_covariance``,
    stacked, then one batched ``np.linalg.det`` (the same LAPACK call per
    matrix, so each row keeps its rounding) and one ``np.sqrt``."""
    r, theta = p["r"], p["theta"]
    c00, c01, c11 = phase_space._step_entries(r, theta)
    phase_space._check_covariance(c00, c01, c01, c11, "c1")
    entries = np.empty((p["n_max"], 4))
    for n in range(1, p["n_max"] + 1):
        e00, e01, e11 = phase_space._dirichlet_sum(c00, c01, c11, theta, n)
        phase_space._det_2x2(e00, e01, e01, e11)  # raises on overflow
        entries[n - 1] = e00, e01, e01, e11
    sqrt_det = np.sqrt(np.linalg.det(entries.reshape(-1, 2, 2))).tolist()
    rows = [
        [n, s, phase_space.det_cn_asymptotic(r, n)]
        for n, s in enumerate(sqrt_det, start=1)
    ]
    return ["n", "sqrt_det_cn", "n_cosh_2r"], rows, None


def _run_trajectories(p: dict, master_seed: int) -> RunnerResult:
    q0, p0 = p["q0"], p["p0"]
    n_bar = p["n_bar"] if p["n_bar"] is not None else 0.5 * (q0 * q0 + p0 * p0)
    cfg = observed.ObservedRunConfig(
        z0=phase_space.PhaseVector(q0, p0),
        params=phase_space.EvolutionParams(p["chi"], n_bar, p["tau"], p["n_steps"]),
        spec=fock.MeasurementSpec(p["r"]),
        n_trajectories=p["n_trajectories"],
        master_seed=master_seed,
    )
    n = cfg.n_trajectories
    # an overflowing chain or moment exits 3 through FloatingPointError, not
    # as warnings; the closed form goes first, so a step covariance that is
    # not positive-definite is refused before anything is sampled
    with np.errstate(over="raise", invalid="raise"):
        target = observed.analytic_final_distribution(cfg)
        finals = observed.run_ensemble(cfg)
        # the recorded paths come from one batched call of the same sampler
        _, paths = observed._sample_chains(
            cfg, 0, min(p["record_paths"], n), keep_paths=True
        )
        sample_mean = finals.mean(axis=0)
        sample_cov = np.cov(finals.T, ddof=1) if n > 1 else np.zeros((2, 2))
        mean_err = float(np.linalg.norm(sample_mean - target.mean.as_array()))
        mean_limit = 4.0 * math.sqrt(float(np.trace(target.cov)) / n)
        diag = np.diag(target.cov)
        cov_se = np.sqrt((np.outer(diag, diag) + target.cov**2) / n)
        max_dev_se = float(np.max(np.abs(sample_cov - target.cov) / cov_se))
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
    steps = np.arange(1, cfg.params.n_steps + 1)
    columns = (steps.tolist(), (steps * cfg.params.tau).tolist())
    rows = []
    for ti, path in enumerate(paths):
        rows.extend([ti, *cells] for cells in zip(*columns, *path.T.tolist()))
    return ["trajectory", "step", "time", "q", "p"], rows, summary


def _run_zeno_continuous(p: dict, master_seed: int) -> RunnerResult:
    """``survival_density_continuous`` at tau = 2 pi m / N for every N: the
    per-N floats of its one helper, then one ``np.exp`` over the column."""
    turns = 2.0 * math.pi * p["m"]  # tau = turns / N; omega = 1, so theta = tau
    r = fock.MeasurementSpec(p["r"]).r  # refuses |r| > 700
    ns = range(1, p["n_max"] + 1)
    exponents, norms = np.empty((2, p["n_max"]))
    for n in ns:
        # the drift starts at z0 = (2, 0)
        exponents[n - 1], norms[n - 1] = observed._survival_terms(2.0, 0.0, r, turns / n, n)
    densities = (np.exp(exponents) / norms).tolist()
    rows = [[n, d, n * d] for n, d in zip(ns, densities)]
    return ["n", "survival_density", "n_times_survival_density"], rows, None


def _run_zeno_dichotomic(p: dict, master_seed: int) -> RunnerResult:
    alpha0 = complex(p["alpha0_re"], p["alpha0_im"])
    psi0 = fock.displaced_seed(fock.MeasurementSpec(p["r"]), alpha0, p["dim"])
    var_n2 = fock.number_squared_variance(psi0)
    rows = []
    for n in p["n_list"]:
        survival = fock.dichotomic_survival_exact(psi0, p["chi_t"], n)
        rows.append([n, survival, math.exp(-var_n2 * p["chi_t"] ** 2 / n)])
    summary = {"var_n2": var_n2, "dim": psi0.dim}
    return ["n", "survival", "gaussian_bound"], rows, summary


def _run_two_level(p: dict, master_seed: int) -> RunnerResult:
    rows = []
    for n in range(1, p["n_max"] + 1):
        model = two_level.TwoLevelModel(p["alpha"], 1.0, p["omega_tau"], n)
        rows.append(
            [
                n,
                two_level.survival_exact(model),
                two_level.survival_closed_form(model),
                two_level.survival_asymptotic(p["alpha"], 1.0, n * p["omega_tau"], n),
            ]
        )
    return ["n", "survival_exact", "survival_closed", "survival_asymptotic"], rows, None


def _run_two_level_sweep(p: dict, master_seed: int) -> RunnerResult:
    series = two_level.scaling_sweep(p["c"], p["beta"], p["omega"], p["t"], p["n_list"])
    rows = [[n, p["c"] / n ** p["beta"], p0] for n, p0 in series]
    return ["n", "alpha_n", "survival"], rows, None


def _run_identity_check(p: dict, master_seed: int) -> RunnerResult:
    spec = fock.MeasurementSpec(p["r"])
    grids = [fock.QuadratureGrid(n_r=p["n_r"], n_phi=p["n_phi"], r_max=p["r_max"])]
    if p["include_doubled"]:
        grids.append(grids[0].doubled())
    rows = []
    for scale, grid in enumerate(grids, start=1):
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
                Field("chi_t_min", "float", 0.0),
                Field("chi_t_max", "float", math.pi),
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
                Field("tau", "float", 0.1),
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
                Field("omega", "float", 1.0),
                Field("t", "float", 1.0),
                Field("n_list", "int_list",
                      [1, 10, 100, 1000, 10000, 100000, 1000000], minimum=1),
            ),
            _run_two_level_sweep,
        ),
        ExperimentSpec(
            "identity-check",
            "Completeness defect of the displaced measurement family on a "
            "polar quadrature grid, optionally with a doubled grid.",
            (
                Field("r", "float", 0.0),
                Field("dim_check", "int", 10, minimum=1),
                Field("n_r", "int", 200, minimum=1),
                Field("n_phi", "int", 128, minimum=1),
                Field("r_max", "float", None, nullable=True, minimum=1e-6),
                Field("include_doubled", "bool", True),
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


def envelope_json_dict(envelope: ResultEnvelope) -> dict:
    """JSON-ready dict; identical reruns differ only in wall_time_s."""
    out = {
        "experiment": envelope.experiment,
        "parameters": envelope.parameters,
        "tool_version": envelope.tool_version,
        "master_seed": envelope.master_seed,
        "wall_time_s": envelope.wall_time_s,
        "columns": envelope.columns,
        "rows": envelope.rows,
    }
    if envelope.summary is not None:
        out["summary"] = envelope.summary
    return out


def write_csv(envelope: ResultEnvelope, fh) -> None:
    """Header plus data rows, CRLF line endings, shortest float repr.

    Cells are ``int``, ``float`` or ``str``, which ``csv`` writes as
    ``str``, ``repr`` and ``str``.
    """
    writer = csv.writer(fh, lineterminator="\r\n")
    writer.writerow(envelope.columns)
    writer.writerows(envelope.rows)
